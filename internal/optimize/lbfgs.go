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

	// One slab holds the run's vectors: x, g, gNew, dir, trial, alpha and
	// the Memory+1 correction pairs' s and y (the pairs in hist and the one
	// being formed). Nothing reuses it after the call; Result.X is x.
	m := opts.Memory
	slab := make([]float64, (5+2*(m+1))*dim+m)
	take := func(n int) []float64 {
		v := slab[:n:n]
		slab = slab[n:]
		return v
	}
	x, g, gNew, dir, trial := take(dim), take(dim), take(dim), take(dim), take(dim)
	alpha := take(m)

	copy(x, x0)
	fx := obj.Value(x)
	evals := 1
	if math.IsNaN(fx) || math.IsInf(fx, 0) {
		return Result{}, errors.New("optimize: objective not finite at start")
	}
	copy(g, obj.Grad(x))

	// hist is a ring of correction pairs: the n held run oldest first from
	// hist[old]. An accepted pair swaps its s and y into the slot it fills
	// (once full, the oldest pair's), whose storage forms the next one.
	type pair struct {
		s, y  []float64
		rho   float64 // 1/sᵀy
		gamma float64 // sᵀy/yᵀy, the initial Hessian scale when the pair is newest
	}
	hist := make([]pair, m)
	for i := range hist {
		hist[i].s, hist[i].y = take(dim), take(dim)
	}
	old, n := 0, 0
	at := func(t int) *pair {
		if t += old; t >= m {
			t -= m
		}
		return &hist[t]
	}
	s, y := take(dim), take(dim)

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
		// Two-loop recursion: dir = −H·g. Each pair's axpy runs in one pass
		// with the dot product the next pair needs of its result.
		copy(dir, g)
		if n > 0 {
			newest := at(n - 1)
			alpha[n-1] = newest.rho * dot(newest.s, dir)
			for t := n - 1; t > 0; t-- {
				p, q := at(t), at(t-1)
				alpha[t-1] = q.rho * axpyDot(dir, p.y, -alpha[t], q.s)
			}
			axpy(dir, at(0).y, -alpha[0])
			if gamma := newest.gamma; gamma > 0 && !math.IsNaN(gamma) {
				for i := range dir {
					dir[i] *= gamma
				}
			}
			beta := at(0).rho * dot(at(0).y, dir)
			for t := 0; t < n-1; t++ {
				p, q := at(t), at(t+1)
				beta = q.rho * axpyDot(dir, p.s, alpha[t]-beta, q.y)
			}
			axpy(dir, at(n-1).s, alpha[n-1]-beta)
		}
		dg := 0.0
		for i, v := range g {
			dir[i] = -dir[i]
			dg += dir[i] * v
		}
		// Descent check; fall back to −g.
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
		sy := 0.0
		for i := range x {
			s[i] = trial[i] - x[i]
			y[i] = gNew[i] - g[i]
			sy += s[i] * y[i]
		}
		if sy > 0 {
			p := at(n)
			if n < m {
				n++
			} else if old++; old == m {
				old = 0
			}
			p.s, s = s, p.s
			p.y, y = y, p.y
			p.rho, p.gamma = 1/sy, sy/dot(p.y, p.y)
		}
		copy(x, trial)
		fx = fNew
		g, gNew = gNew, g
	}
	return Result{X: x, Value: fx, Iterations: opts.MaxIter, Evaluations: evals, Converged: false}, nil
}

func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// axpyDot computes dst += c·src and returns aᵀdst, summed in index order
// as dot sums it.
func axpyDot(dst, src []float64, c float64, a []float64) float64 {
	src, a = src[:len(dst)], a[:len(dst)]
	s := 0.0
	for i, v := range src {
		dst[i] += c * v
		s += a[i] * dst[i]
	}
	return s
}

// axpy computes dst += c·src.
func axpy(dst, src []float64, c float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += c * v
	}
}
