package sparse

import "factorgraph/internal/dense"

// The register kernels. Every one keeps a row's partial sums in named
// scalars — the compiler holds them in FP registers for the whole row scan —
// and stores each out-row once, where the flat scan accumulates through
// out's memory (a store-to-load forward and two bounds checks per entry).
// Each lane adds its terms in stored-entry order, exactly the flat scan's,
// so every kernel is bit-identical to MulDenseIntoSimple. Go has no way to
// say "w accumulators" once: each width is its own function, weighted and
// unweighted arm apiece.
//
// regRows2..5 serve X of exactly that width: the stride is a constant, which
// is worth 12–18 % at k = 2..3 and ~5 % at k = 5 over taking it from x.Cols.

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

func (c *CSR) regRows5(out, x *dense.Matrix, lo, hi int) {
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3, a4 float64
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col) * 5
				xr := xd[b : b+5 : b+5]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
				a3 += xr[3]
				a4 += xr[4]
			}
		} else {
			for p := start; p < end; p++ {
				wv := c.Data[p]
				b := int(c.Indices[p]) * 5
				xr := xd[b : b+5 : b+5]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
				a3 += wv * xr[3]
				a4 += wv * xr[4]
			}
		}
		or := od[i*5 : i*5+5 : i*5+5]
		or[0], or[1], or[2], or[3], or[4] = a0, a1, a2, a3, a4
	}
}

// panelRows4..8 compute columns [off, off+w) of rows [lo, hi) for an X of any
// width: the stride is x.Cols. mulDensePanels runs them one after another
// over a block of rows.

func (c *CSR) panelRows4(out, x *dense.Matrix, lo, hi, off int) {
	k := x.Cols
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3 float64
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col)*k + off
				xr := xd[b : b+4 : b+4]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
				a3 += xr[3]
			}
		} else {
			for p := start; p < end; p++ {
				wv := c.Data[p]
				b := int(c.Indices[p])*k + off
				xr := xd[b : b+4 : b+4]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
				a3 += wv * xr[3]
			}
		}
		b := i*k + off
		or := od[b : b+4 : b+4]
		or[0], or[1], or[2], or[3] = a0, a1, a2, a3
	}
}

func (c *CSR) panelRows5(out, x *dense.Matrix, lo, hi, off int) {
	k := x.Cols
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3, a4 float64
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col)*k + off
				xr := xd[b : b+5 : b+5]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
				a3 += xr[3]
				a4 += xr[4]
			}
		} else {
			for p := start; p < end; p++ {
				wv := c.Data[p]
				b := int(c.Indices[p])*k + off
				xr := xd[b : b+5 : b+5]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
				a3 += wv * xr[3]
				a4 += wv * xr[4]
			}
		}
		b := i*k + off
		or := od[b : b+5 : b+5]
		or[0], or[1], or[2], or[3], or[4] = a0, a1, a2, a3, a4
	}
}

func (c *CSR) panelRows6(out, x *dense.Matrix, lo, hi, off int) {
	k := x.Cols
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3, a4, a5 float64
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col)*k + off
				xr := xd[b : b+6 : b+6]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
				a3 += xr[3]
				a4 += xr[4]
				a5 += xr[5]
			}
		} else {
			for p := start; p < end; p++ {
				wv := c.Data[p]
				b := int(c.Indices[p])*k + off
				xr := xd[b : b+6 : b+6]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
				a3 += wv * xr[3]
				a4 += wv * xr[4]
				a5 += wv * xr[5]
			}
		}
		b := i*k + off
		or := od[b : b+6 : b+6]
		or[0], or[1], or[2], or[3], or[4], or[5] = a0, a1, a2, a3, a4, a5
	}
}

func (c *CSR) panelRows7(out, x *dense.Matrix, lo, hi, off int) {
	k := x.Cols
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3, a4, a5, a6 float64
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col)*k + off
				xr := xd[b : b+7 : b+7]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
				a3 += xr[3]
				a4 += xr[4]
				a5 += xr[5]
				a6 += xr[6]
			}
		} else {
			for p := start; p < end; p++ {
				wv := c.Data[p]
				b := int(c.Indices[p])*k + off
				xr := xd[b : b+7 : b+7]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
				a3 += wv * xr[3]
				a4 += wv * xr[4]
				a5 += wv * xr[5]
				a6 += wv * xr[6]
			}
		}
		b := i*k + off
		or := od[b : b+7 : b+7]
		or[0], or[1], or[2], or[3], or[4], or[5], or[6] = a0, a1, a2, a3, a4, a5, a6
	}
}

func (c *CSR) panelRows8(out, x *dense.Matrix, lo, hi, off int) {
	k := x.Cols
	xd, od := x.Data, out.Data
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		start, end := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			for _, col := range c.Indices[start:end] {
				b := int(col)*k + off
				xr := xd[b : b+8 : b+8]
				a0 += xr[0]
				a1 += xr[1]
				a2 += xr[2]
				a3 += xr[3]
				a4 += xr[4]
				a5 += xr[5]
				a6 += xr[6]
				a7 += xr[7]
			}
		} else {
			for p := start; p < end; p++ {
				wv := c.Data[p]
				b := int(c.Indices[p])*k + off
				xr := xd[b : b+8 : b+8]
				a0 += wv * xr[0]
				a1 += wv * xr[1]
				a2 += wv * xr[2]
				a3 += wv * xr[3]
				a4 += wv * xr[4]
				a5 += wv * xr[5]
				a6 += wv * xr[6]
				a7 += wv * xr[7]
			}
		}
		b := i*k + off
		or := od[b : b+8 : b+8]
		or[0], or[1], or[2], or[3], or[4], or[5], or[6], or[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// MulRowInto writes one row of W × X into out from that row's stored
// entries: out = Σ w_p·X[cols[p]], wts nil meaning all ones — a row the CSR
// does not hold, such as a delta overlay's patched row. X of width 2..5
// takes the register arm of that width (regRow2..5, the per-row form of
// regRows2..5, which keep their loops inline rather than pay a call per
// row), any other width the flat scan. Every lane adds in stored-entry
// order, so out is bit-identical to the row MulDenseInto and
// MulDenseIntoSimple write for the same entries. out must be x.Cols long.
func MulRowInto(out []float64, x *dense.Matrix, cols []int32, wts []float64) {
	if len(out) != x.Cols {
		panic("sparse: MulRowInto out row is not X's width")
	}
	switch k := x.Cols; k {
	case 2:
		regRow2(out, x.Data, cols, wts)
	case 3:
		regRow3(out, x.Data, cols, wts)
	case 4:
		regRow4(out, x.Data, cols, wts)
	case 5:
		regRow5(out, x.Data, cols, wts)
	default:
		clear(out)
		if wts == nil {
			for _, col := range cols {
				xr := x.Data[int(col)*k:][:k]
				for j, v := range xr {
					out[j] += v
				}
			}
			return
		}
		wts = wts[:len(cols)]
		for p, col := range cols {
			wv, xr := wts[p], x.Data[int(col)*k:][:k]
			for j, v := range xr {
				out[j] += wv * v
			}
		}
	}
}

func regRow2(out, xd []float64, cols []int32, wts []float64) {
	var a0, a1 float64
	if wts == nil {
		for _, col := range cols {
			b := int(col) * 2
			xr := xd[b : b+2 : b+2]
			a0 += xr[0]
			a1 += xr[1]
		}
	} else {
		wts = wts[:len(cols)]
		for p, col := range cols {
			wv := wts[p]
			b := int(col) * 2
			xr := xd[b : b+2 : b+2]
			a0 += wv * xr[0]
			a1 += wv * xr[1]
		}
	}
	or := out[:2:2]
	or[0], or[1] = a0, a1
}

func regRow3(out, xd []float64, cols []int32, wts []float64) {
	var a0, a1, a2 float64
	if wts == nil {
		for _, col := range cols {
			b := int(col) * 3
			xr := xd[b : b+3 : b+3]
			a0 += xr[0]
			a1 += xr[1]
			a2 += xr[2]
		}
	} else {
		wts = wts[:len(cols)]
		for p, col := range cols {
			wv := wts[p]
			b := int(col) * 3
			xr := xd[b : b+3 : b+3]
			a0 += wv * xr[0]
			a1 += wv * xr[1]
			a2 += wv * xr[2]
		}
	}
	or := out[:3:3]
	or[0], or[1], or[2] = a0, a1, a2
}

func regRow4(out, xd []float64, cols []int32, wts []float64) {
	var a0, a1, a2, a3 float64
	if wts == nil {
		for _, col := range cols {
			b := int(col) * 4
			xr := xd[b : b+4 : b+4]
			a0 += xr[0]
			a1 += xr[1]
			a2 += xr[2]
			a3 += xr[3]
		}
	} else {
		wts = wts[:len(cols)]
		for p, col := range cols {
			wv := wts[p]
			b := int(col) * 4
			xr := xd[b : b+4 : b+4]
			a0 += wv * xr[0]
			a1 += wv * xr[1]
			a2 += wv * xr[2]
			a3 += wv * xr[3]
		}
	}
	or := out[:4:4]
	or[0], or[1], or[2], or[3] = a0, a1, a2, a3
}

func regRow5(out, xd []float64, cols []int32, wts []float64) {
	var a0, a1, a2, a3, a4 float64
	if wts == nil {
		for _, col := range cols {
			b := int(col) * 5
			xr := xd[b : b+5 : b+5]
			a0 += xr[0]
			a1 += xr[1]
			a2 += xr[2]
			a3 += xr[3]
			a4 += xr[4]
		}
	} else {
		wts = wts[:len(cols)]
		for p, col := range cols {
			wv := wts[p]
			b := int(col) * 5
			xr := xd[b : b+5 : b+5]
			a0 += wv * xr[0]
			a1 += wv * xr[1]
			a2 += wv * xr[2]
			a3 += wv * xr[3]
			a4 += wv * xr[4]
		}
	}
	or := out[:5:5]
	or[0], or[1], or[2], or[3], or[4] = a0, a1, a2, a3, a4
}
