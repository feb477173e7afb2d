package optimize

import (
	"errors"
	"math"
	"sort"
)

// NMOptions configures NelderMead.
type NMOptions struct {
	MaxIter int     // maximum iterations (default 200·dim)
	Tol     float64 // stop when the simplex value spread < Tol (default 1e-8)
	Scale   float64 // initial simplex edge length (default 0.05)
}

func (o *NMOptions) defaults(dim int) {
	if o.MaxIter == 0 {
		o.MaxIter = 200 * dim
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
}

// NelderMead minimizes f starting from x0 using the derivative-free
// Nelder–Mead simplex method with standard coefficients (reflection 1,
// expansion 2, contraction 0.5, shrink 0.5). The paper uses SciPy's
// Nelder–Mead for the Holdout baseline because the holdout energy
// (negative accuracy) is discrete and non-contiguous.
func NelderMead(f func([]float64) float64, x0 []float64, opts NMOptions) (Result, error) {
	dim := len(x0)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty starting point")
	}
	opts.defaults(dim)

	type vertex struct {
		x []float64
		v float64
	}
	simplex := make([]vertex, dim+1)
	simplex[0] = vertex{append([]float64(nil), x0...), f(x0)}
	for i := 0; i < dim; i++ {
		x := append([]float64(nil), x0...)
		x[i] += opts.Scale
		simplex[i+1] = vertex{x, f(x)}
	}
	evals := dim + 1

	centroid := make([]float64, dim)
	xr := make([]float64, dim)
	xe := make([]float64, dim)
	xc := make([]float64, dim)

	for it := 0; it < opts.MaxIter; it++ {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].v < simplex[b].v })
		best, worst := simplex[0], simplex[dim]
		if math.Abs(worst.v-best.v) < opts.Tol {
			return Result{X: best.x, Value: best.v, Iterations: it, Evaluations: evals, Converged: true}, nil
		}
		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j, v := range simplex[i].x {
				centroid[j] += v
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}
		// Reflection.
		for j := range xr {
			xr[j] = centroid[j] + (centroid[j] - worst.x[j])
		}
		fr := f(xr)
		evals++
		switch {
		case fr < best.v:
			// Expansion.
			for j := range xe {
				xe[j] = centroid[j] + 2*(centroid[j]-worst.x[j])
			}
			fe := f(xe)
			evals++
			if fe < fr {
				copy(simplex[dim].x, xe)
				simplex[dim].v = fe
			} else {
				copy(simplex[dim].x, xr)
				simplex[dim].v = fr
			}
		case fr < simplex[dim-1].v:
			copy(simplex[dim].x, xr)
			simplex[dim].v = fr
		default:
			// Contraction (toward the better of worst/reflected).
			ref := worst.x
			fref := worst.v
			if fr < worst.v {
				ref = xr
				fref = fr
			}
			for j := range xc {
				xc[j] = centroid[j] + 0.5*(ref[j]-centroid[j])
			}
			fc := f(xc)
			evals++
			if fc < fref {
				copy(simplex[dim].x, xc)
				simplex[dim].v = fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = best.x[j] + 0.5*(simplex[i].x[j]-best.x[j])
					}
					simplex[i].v = f(simplex[i].x)
					evals++
				}
			}
		}
	}
	sort.Slice(simplex, func(a, b int) bool { return simplex[a].v < simplex[b].v })
	return Result{X: simplex[0].x, Value: simplex[0].v, Iterations: opts.MaxIter, Evaluations: evals, Converged: false}, nil
}
