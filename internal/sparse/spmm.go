package sparse

import (
	"fmt"

	"factorgraph/internal/dense"
)

// Tiling parameters for the blocked SpMM. The column tile is sized so the
// slice of x-rows a tile can touch fits comfortably in L2 (256 KiB of
// float64 payload); row blocks bound the per-worker cursor state and keep
// out-rows register/L1 resident across a tile sweep.
const (
	spmmTileBytes = 1 << 18 // x-row bytes addressable per column tile
	spmmRowBlock  = 128     // rows processed per cursor block

	// Below these, the whole x matrix fits in cache anyway (or the nnz is
	// too small to amortize cursor bookkeeping) and the simple row-scan
	// kernel wins.
	spmmTiledMinXBytes = 1 << 19
	spmmTiledMinNNZ    = 1 << 15

	// MulVec goes row-parallel past this nnz; under it the fan-out
	// overhead dominates a single sequential scan.
	mulVecParallelNNZ = 1 << 14

	// Widest X for the register-blocked kernel: per-row accumulators live
	// in named scalars (the compiler keeps them in FP registers), so each
	// width needs its own specialization. LinBP class counts are small —
	// 2..4 covers the serving workloads; wider matrices go to the tiled or
	// flat-scan kernels.
	spmmRegMaxCols = 4
)

// MulDenseIntoSimple computes out = W × X with the seed-era kernel: one
// flat scan per row, parallelized over row chunks. It remains exported as
// the benchmark baseline for the tiled kernel and as the small-input fast
// path (MulDenseInto dispatches here when X fits in cache).
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

// mulDenseReg is the register-blocked kernel for narrow X (k ≤
// spmmRegMaxCols), the LinBP serving regime. The flat scan accumulates
// through out's memory rows — every entry pays a store-to-load forward and
// two bounds checks — while this kernel keeps the row's k partial sums in
// named scalars that live in FP registers for the whole row scan, storing
// once per row. The accumulation order per lane is exactly the flat scan's,
// so the result is bit-identical to MulDenseIntoSimple; measured ~2.4×
// on a 200k-node degree-10 graph at k=3..4.
func (c *CSR) mulDenseReg(out, x *dense.Matrix) {
	switch x.Cols {
	case 2:
		defaultPool.parallelRows(c.N, func(lo, hi int) { c.regRows2(out, x, lo, hi) })
	case 3:
		defaultPool.parallelRows(c.N, func(lo, hi int) { c.regRows3(out, x, lo, hi) })
	case 4:
		defaultPool.parallelRows(c.N, func(lo, hi int) { c.regRows4(out, x, lo, hi) })
	default:
		c.mulDenseSimple(out, x)
	}
}

func (c *CSR) regRows2(out, x *dense.Matrix, lo, hi int) {
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1 float64
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
				wv := c.Data[p]
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

func (c *CSR) regRows3(out, x *dense.Matrix, lo, hi int) {
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2 float64
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
				wv := c.Data[p]
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

func (c *CSR) regRows4(out, x *dense.Matrix, lo, hi int) {
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3 float64
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
				wv := c.Data[p]
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

// mulDenseTiled is the blocked kernel: each worker walks its rows in blocks
// of spmmRowBlock, sweeping column tiles sized so the x-rows a tile can
// reference stay L2-resident while every row of the block drains its
// entries falling inside the tile. Because column indices are sorted within
// a row, visiting tiles in ascending order accumulates each row's terms in
// exactly the flat-scan order — the result is bit-identical to
// MulDenseIntoSimple, only the memory access pattern changes.
func (c *CSR) mulDenseTiled(out, x *dense.Matrix) {
	k := x.Cols
	tileCols := spmmTileBytes / (8 * k)
	if tileCols < 1024 {
		tileCols = 1024
	}
	defaultPool.parallelRows(c.N, func(lo, hi int) {
		var cur [spmmRowBlock]int
		for blo := lo; blo < hi; blo += spmmRowBlock {
			bhi := blo + spmmRowBlock
			if bhi > hi {
				bhi = hi
			}
			// Zero the block's out-rows and latch cursors; track the
			// block's column span so empty tiles are skipped outright.
			minCol, maxCol := c.N, 0
			for i := blo; i < bhi; i++ {
				orow := out.Data[i*k : (i+1)*k]
				for j := range orow {
					orow[j] = 0
				}
				s, e := c.IndPtr[i], c.IndPtr[i+1]
				cur[i-blo] = s
				if s < e {
					if fc := int(c.Indices[s]); fc < minCol {
						minCol = fc
					}
					if lc := int(c.Indices[e-1]); lc > maxCol {
						maxCol = lc
					}
				}
			}
			if minCol > maxCol {
				continue
			}
			for tile := (minCol / tileCols) * tileCols; tile <= maxCol; tile += tileCols {
				tileEnd := int32(tile + tileCols)
				for i := blo; i < bhi; i++ {
					p, end := cur[i-blo], c.IndPtr[i+1]
					if p >= end || c.Indices[p] >= tileEnd {
						continue
					}
					orow := out.Data[i*k : (i+1)*k]
					if c.Data == nil {
						for p < end && c.Indices[p] < tileEnd {
							xrow := x.Data[int(c.Indices[p])*k : int(c.Indices[p]+1)*k]
							for j, v := range xrow {
								orow[j] += v
							}
							p++
						}
					} else {
						for p < end && c.Indices[p] < tileEnd {
							wv := c.Data[p]
							xrow := x.Data[int(c.Indices[p])*k : int(c.Indices[p]+1)*k]
							for j, v := range xrow {
								orow[j] += wv * v
							}
							p++
						}
					}
					cur[i-blo] = p
				}
			}
		}
	})
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
}
