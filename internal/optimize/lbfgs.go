package optimize

import (
	"errors"
	"math"
)

// LBFGSOptions configures LBFGS.
type LBFGSOptions struct {
	MaxIter int     // maximum iterations (default 300)
	GradTol float64 // stop when ‖∇E‖∞ < GradTol (default 1e-9)
	Memory  int     // number of correction pairs (default max(7, min(dim, 32)))
	Armijo  float64 // sufficient-decrease constant (default 1e-4)
	Shrink  float64 // line-search bisection fraction; steps grow by its inverse (default 0.5)
}

// curvature is the weak-Wolfe constant c₂: a step is long enough once the
// slope along it has risen to c₂ times the initial slope.
const curvature = 0.9

func (o *LBFGSOptions) defaults(dim int) {
	if o.MaxIter == 0 {
		o.MaxIter = 300
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-9
	}
	if o.Memory == 0 {
		// A history shorter than the problem cannot hold its curvature and
		// the tail of the descent turns linear; the problems here are small
		// (k* = k(k−1)/2 parameters), so keep a pair per dimension.
		o.Memory = max(7, min(dim, 32))
	}
	if o.Armijo == 0 {
		o.Armijo = 1e-4
	}
	if o.Shrink == 0 {
		o.Shrink = 0.5
	}
}

// LBFGS minimizes obj with the limited-memory BFGS two-loop recursion and a
// weak-Wolfe line search, whose curvature condition keeps every correction
// pair usable (sᵀy > 0) and lengthens the step where unit steps crawl. It
// typically needs far fewer iterations than steepest descent on the
// ill-conditioned DCE energies with large λ; the ablation benchmark
// quantifies the difference. Falls back to the steepest descent direction
// whenever curvature information is unusable.
//
// It stops at the floating-point floor: when the decrease the line search
// asks for is no longer representable next to f(x), the remaining gradient
// is below what function values can resolve and the run has converged,
// whatever GradTol says.
func LBFGS(obj Objective, x0 []float64, opts LBFGSOptions) (Result, error) {
	dim := len(x0)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty starting point")
	}
	opts.defaults(dim)

	x := append([]float64(nil), x0...)
	fx := obj.Value(x)
	evals := 1
	if math.IsNaN(fx) || math.IsInf(fx, 0) {
		return Result{}, errors.New("optimize: objective not finite at start")
	}
	g := append([]float64(nil), obj.Grad(x)...)
	gNew := make([]float64, dim)

	// hist holds the correction pairs oldest first; once full, a new pair
	// takes over the storage of the one it evicts.
	type pair struct {
		s, y []float64
		rho  float64
	}
	hist := make([]pair, 0, opts.Memory)
	s, y := make([]float64, dim), make([]float64, dim)
	dir := make([]float64, dim)
	trial := make([]float64, dim)
	alpha := make([]float64, opts.Memory)

	for it := 0; it < opts.MaxIter; it++ {
		gInf := 0.0
		for _, v := range g {
			if a := math.Abs(v); a > gInf {
				gInf = a
			}
		}
		if gInf < opts.GradTol {
			return Result{X: x, Value: fx, Iterations: it, Evaluations: evals, Converged: true}, nil
		}
		// Two-loop recursion: dir = −H·g.
		copy(dir, g)
		for i := len(hist) - 1; i >= 0; i-- {
			p := hist[i]
			alpha[i] = p.rho * dot(p.s, dir)
			axpy(dir, p.y, -alpha[i])
		}
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			gamma := dot(last.s, last.y) / dot(last.y, last.y)
			if gamma > 0 && !math.IsNaN(gamma) {
				for i := range dir {
					dir[i] *= gamma
				}
			}
		}
		for i := 0; i < len(hist); i++ {
			p := hist[i]
			beta := p.rho * dot(p.y, dir)
			axpy(dir, p.s, alpha[i]-beta)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Descent check; fall back to −g.
		dg := dot(dir, g)
		if dg >= 0 || math.IsNaN(dg) {
			for i := range dir {
				dir[i] = -g[i]
			}
			dg = -dot(g, g)
		}
		// Weak-Wolfe line search along dir by bisection: a step that fails
		// sufficient decrease is too long (hi), one that leaves more than
		// curvature of the slope is too short (lo).
		lo, hi := 0.0, math.Inf(1)
		step := 1.0
		accepted := false
		var fNew float64
		for ls := 0; ls < 60; ls++ {
			if need := fx + opts.Armijo*step*dg; need < fx {
				for i := range x {
					trial[i] = x[i] + step*dir[i]
				}
				fNew = obj.Value(trial)
				evals++
				if fNew <= need {
					copy(gNew, obj.Grad(trial))
					if dot(gNew, dir) >= curvature*dg {
						accepted = true
						break
					}
					lo = step
				} else {
					hi = step
				}
			} else if !math.IsInf(hi, 1) {
				// The sufficient-decrease term underflows against fx, so no
				// step this short can show a representable decrease, and a
				// longer one is already known to be too long.
				break
			}
			if math.IsInf(hi, 1) {
				step /= opts.Shrink
			} else {
				step = lo + opts.Shrink*(hi-lo)
			}
		}
		if !accepted {
			if lo == 0 {
				// No step along dir decreases the objective at machine
				// precision — treat as converged.
				return Result{X: x, Value: fx, Iterations: it, Evaluations: evals, Converged: true}, nil
			}
			// Take the longest step known to decrease it.
			for i := range x {
				trial[i] = x[i] + lo*dir[i]
			}
			fNew = obj.Value(trial)
			evals++
			copy(gNew, obj.Grad(trial))
		}
		// Curvature pair.
		for i := range x {
			s[i] = trial[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		if sy := dot(s, y); sy > 0 {
			p := pair{s: s, y: y, rho: 1 / sy}
			if len(hist) < opts.Memory {
				hist = append(hist, p)
				s, y = make([]float64, dim), make([]float64, dim)
			} else {
				s, y = hist[0].s, hist[0].y
				copy(hist, hist[1:])
				hist[len(hist)-1] = p
			}
		}
		copy(x, trial)
		fx = fNew
		g, gNew = gNew, g
	}
	return Result{X: x, Value: fx, Iterations: opts.MaxIter, Evaluations: evals, Converged: false}, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// axpy computes dst += c·src.
func axpy(dst, src []float64, c float64) {
	for i := range dst {
		dst[i] += c * src[i]
	}
}
