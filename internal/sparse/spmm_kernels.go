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
