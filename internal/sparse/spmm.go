package sparse

import (
	"fmt"

	"factorgraph/internal/dense"
)

const (
	// MulVec goes row-parallel past this nnz; under it the fan-out
	// overhead dominates a single sequential scan.
	mulVecParallelNNZ = 1 << 14

	// Widest column panel (panelRows4..8): eight accumulators, the weight
	// and a gathered x value fit the 15 usable FP registers; more spill.
	spmmPanelMaxCols = 8

	// Rows a worker takes through every panel before moving on: short
	// enough that the indices and the x-rows one panel gathered are still
	// in L1/L2 for the next (64 read 5–15 % faster than 1024 on a 200k-node
	// graph at k = 9..16 and the same on a 20k-node one).
	spmmPanelRowBlock = 64
)

// MulDenseIntoSimple computes out = W × X with the seed-era kernel: one
// flat scan per row, parallelized over row chunks. It is the reference the
// register kernels are bit-identical to (the tests compare against it), the
// benchmark's baseline row, and what MulDenseInto runs at k = 1.
func (c *CSR) MulDenseIntoSimple(out, x *dense.Matrix) {
	c.checkMulDenseShapes(out, x)
	c.mulDenseSimple(out, x)
}

func (c *CSR) mulDenseSimple(out, x *dense.Matrix) {
	k := x.Cols
	defaultPool.parallelRows(c.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*k : (i+1)*k]
			for j := range orow {
				orow[j] = 0
			}
			start, end := c.IndPtr[i], c.IndPtr[i+1]
			if c.Data == nil {
				for _, col := range c.Indices[start:end] {
					xrow := x.Data[int(col)*k : int(col+1)*k]
					for j, v := range xrow {
						orow[j] += v
					}
				}
			} else {
				for p := start; p < end; p++ {
					wv := c.Data[p]
					xrow := x.Data[int(c.Indices[p])*k : int(c.Indices[p]+1)*k]
					for j, v := range xrow {
						orow[j] += wv * v
					}
				}
			}
		}
	})
}

// mulDense is the one dispatch behind MulDenseInto and MulDenseRowsInto, by
// k alone whatever the graph's size: k = 1 is the flat scan; k = 2..5 — the
// class counts the serving and benchmark workloads run — the constant-stride
// register kernel of that width (spmm_kernels.go); wider X is ⌈k/8⌉ column
// panels of near-equal width (6..8 are one panel, 11 is 6+5, 17 is 6+6+5 —
// never under 4). A worker takes spmmPanelRowBlock rows through every panel
// before moving on. Panels write disjoint columns and each lane still adds
// in stored-entry order, so the split changes nothing in the result.
func (c *CSR) mulDense(out, x *dense.Matrix) {
	var rows func(lo, hi int)
	switch k := x.Cols; k {
	case 0, 1:
		c.mulDenseSimple(out, x)
		return
	case 2:
		rows = func(lo, hi int) { c.regRows2(out, x, lo, hi) }
	case 3:
		rows = func(lo, hi int) { c.regRows3(out, x, lo, hi) }
	case 4:
		rows = func(lo, hi int) { c.regRows4(out, x, lo, hi) }
	case 5:
		rows = func(lo, hi int) { c.regRows5(out, x, lo, hi) }
	default:
		panels := (k + spmmPanelMaxCols - 1) / spmmPanelMaxCols
		rows = func(lo, hi int) {
			for blo := lo; blo < hi; blo += spmmPanelRowBlock {
				bhi := min(blo+spmmPanelRowBlock, hi)
				for p, off := 0, 0; p < panels; p++ {
					w := k / panels
					if p < k%panels {
						w++
					}
					c.panelRows(out, x, blo, bhi, off, w)
					off += w
				}
			}
		}
	}
	defaultPool.parallelRows(c.N, rows)
}

// panelRows computes columns [off, off+w) of rows [lo, hi), 4 ≤ w ≤ 8.
func (c *CSR) panelRows(out, x *dense.Matrix, lo, hi, off, w int) {
	switch w {
	case 4:
		c.panelRows4(out, x, lo, hi, off)
	case 5:
		c.panelRows5(out, x, lo, hi, off)
	case 6:
		c.panelRows6(out, x, lo, hi, off)
	case 7:
		c.panelRows7(out, x, lo, hi, off)
	case 8:
		c.panelRows8(out, x, lo, hi, off)
	default:
		panic(fmt.Sprintf("sparse: no panel kernel of width %d", w))
	}
}

// MulDenseInto32 computes out = W × X in float32. Halving the element width
// halves the bytes every row scan streams; accumulation is float32 too, so
// the result drifts from the float64 kernel by O(deg·ulp32) per entry. No
// propagation path calls it any more (measured 1.13× the float64 kernel):
// it is a benchmark-only leftover behind cmd/bench's sparse.spmm_f32_k3_ms
// row, to be dropped with that row.
func (c *CSR) MulDenseInto32(out, x *dense.Matrix32) {
	if x.Rows != c.N {
		panic(fmt.Sprintf("sparse: MulDenseInto32 shape mismatch: W is %d×%d, X has %d rows", c.N, c.N, x.Rows))
	}
	if out.Rows != c.N || out.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: MulDenseInto32 bad out shape %d×%d, want %d×%d", out.Rows, out.Cols, c.N, x.Cols))
	}
	k := x.Cols
	switch k {
	case 2:
		defaultPool.parallelRows(c.N, func(lo, hi int) { c.regRows32x2(out, x, lo, hi) })
		return
	case 3:
		defaultPool.parallelRows(c.N, func(lo, hi int) { c.regRows32x3(out, x, lo, hi) })
		return
	case 4:
		defaultPool.parallelRows(c.N, func(lo, hi int) { c.regRows32x4(out, x, lo, hi) })
		return
	}
	defaultPool.parallelRows(c.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*k : (i+1)*k]
			for j := range orow {
				orow[j] = 0
			}
			start, end := c.IndPtr[i], c.IndPtr[i+1]
			if c.Data == nil {
				for _, col := range c.Indices[start:end] {
					xrow := x.Data[int(col)*k : int(col+1)*k]
					for j, v := range xrow {
						orow[j] += v
					}
				}
			} else {
				for p := start; p < end; p++ {
					wv := float32(c.Data[p])
					xrow := x.Data[int(c.Indices[p])*k : int(c.Indices[p]+1)*k]
					for j, v := range xrow {
						orow[j] += wv * v
					}
				}
			}
		}
	})
}

// regRows32x2..x4 are the float32 twins of regRows2..4: same register
// accumulation, same per-lane order (bit-identical to the generic f32 scan).

func (c *CSR) regRows32x2(out, x *dense.Matrix32, lo, hi int) {
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1 float32
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col) * 2
				xr := xd[b : b+2 : b+2]
				a0 += xr[0]
				a1 += xr[1]
			}
		} else {
			for p := start; p < end; p++ {
				wv := float32(c.Data[p])
				b := int(c.Indices[p]) * 2
				xr := xd[b : b+2 : b+2]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
			}
		}
		or := od[i*2 : i*2+2 : i*2+2]
		or[0], or[1] = a0, a1
	}
}

func (c *CSR) regRows32x3(out, x *dense.Matrix32, lo, hi int) {
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2 float32
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col) * 3
				xr := xd[b : b+3 : b+3]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
			}
		} else {
			for p := start; p < end; p++ {
				wv := float32(c.Data[p])
				b := int(c.Indices[p]) * 3
				xr := xd[b : b+3 : b+3]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
			}
		}
		or := od[i*3 : i*3+3 : i*3+3]
		or[0], or[1], or[2] = a0, a1, a2
	}
}

func (c *CSR) regRows32x4(out, x *dense.Matrix32, lo, hi int) {
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3 float32
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col) * 4
				xr := xd[b : b+4 : b+4]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
				a3 += xr[3]
			}
		} else {
			for p := start; p < end; p++ {
				wv := float32(c.Data[p])
				b := int(c.Indices[p]) * 4
				xr := xd[b : b+4 : b+4]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
				a3 += wv * xr[3]
			}
		}
		or := od[i*4 : i*4+4 : i*4+4]
		or[0], or[1], or[2], or[3] = a0, a1, a2, a3
	}
}

func (c *CSR) checkMulDenseShapes(out, x *dense.Matrix) {
	if x.Rows != c.N {
		panic(fmt.Sprintf("sparse: MulDense shape mismatch: W is %d×%d, X has %d rows", c.N, c.N, x.Rows))
	}
	if out.Rows != c.N || out.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: MulDenseInto bad out shape %d×%d, want %d×%d", out.Rows, out.Cols, c.N, x.Cols))
	}
	checkNoAlias(out, x)
}

// checkNoAlias panics when out and x start at the same element: every
// kernel reads x-rows after it has written out-rows, so a product into its
// own operand would be garbage, silently.
func checkNoAlias(out, x *dense.Matrix) {
	if len(out.Data) > 0 && len(x.Data) > 0 && &out.Data[0] == &x.Data[0] {
		panic(fmt.Sprintf("sparse: MulDense out aliases X (%d×%d): the product needs its own storage", x.Rows, x.Cols))
	}
}
