package sparse

import "math"

// SpectralRadius estimates ρ(W) by power iteration. W is symmetric in every
// use in this codebase (undirected adjacency), so its spectral radius equals
// its 2-norm and power iteration converges to it. This replaces the paper's
// PyAMG approximate eigensolver. The iterate and the product swap between
// two buffers allocated once, so the allocations do not grow with iters.
func (c *CSR) SpectralRadius(iters int) float64 {
	n := c.N
	if n == 0 || c.NNZ() == 0 {
		return 0
	}
	buf := make([]float64, 2*n)
	vw := [2][]float64{buf[:n:n], buf[n:]} // the iterate v and the product Wv
	v := vw[0]
	for i := range v {
		// All-ones start: deterministic and not orthogonal to the
		// (nonnegative) lead eigenvector in practice.
		v[i] = 1
	}
	normalize(v)
	rows := func(lo, hi int) { c.mulVecRows(vw[1], vw[0], lo, hi) }
	var lambda float64
	for it := 0; it < iters; it++ {
		c.runVecRows(rows)
		w := vw[1]
		l := norm(w)
		if l == 0 {
			return 0
		}
		for i := range w {
			w[i] /= l
		}
		vw[0], vw[1] = w, vw[0]
		lambda = l
	}
	return lambda
}

// rhoMemo records a memoized spectral radius together with the iteration
// budget it was computed under.
type rhoMemo struct {
	iters int
	rho   float64
}

// SpectralRadiusCached returns ρ(W), computing it with SpectralRadius on
// first use and memoizing the result on the matrix. A long-lived serving
// engine calls this on every propagation; the power iteration — O(m·iters)
// — runs once per matrix instead. A request for MORE iterations than the
// cached value used recomputes and upgrades the cache, so mixed-precision
// callers never silently receive a less-converged estimate. Safe for
// concurrent callers: a race at worst recomputes the same deterministic
// value.
func (c *CSR) SpectralRadiusCached(iters int) float64 {
	if p := c.rho.Load(); p != nil && p.iters >= iters {
		return p.rho
	}
	r := c.SpectralRadius(iters)
	memo := &rhoMemo{iters: iters, rho: r}
	// CAS loop so a concurrent lower-precision computation can never
	// overwrite a higher-precision memo.
	for {
		p := c.rho.Load()
		if p != nil && p.iters >= iters {
			return p.rho
		}
		if c.rho.CompareAndSwap(p, memo) {
			return r
		}
	}
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	l := norm(v)
	if l == 0 {
		return
	}
	for i := range v {
		v[i] /= l
	}
}
