// Package optimize provides the two optimizers the reproduction needs:
// gradient descent with Armijo backtracking (a stand-in for the paper's
// SLSQP — the equality constraints are eliminated by the free-parameter
// encoding of H, Eq. 6) and a Nelder–Mead simplex (used by the Holdout
// baseline, as in the paper).
package optimize

import (
	"errors"
	"math"
)

// Objective is a differentiable scalar function of a parameter vector. The
// slice Grad returns need only stay valid until the next Grad call, so an
// objective may hand out its own scratch; solvers copy what they keep
// longer.
type Objective interface {
	Value(x []float64) float64
	Grad(x []float64) []float64
}

// GDOptions configures GradientDescent.
type GDOptions struct {
	MaxIter  int     // maximum outer iterations (default 500)
	GradTol  float64 // stop when ‖∇E‖∞ < GradTol (default 1e-9)
	StepInit float64 // initial step size per iteration (default 1.0)
	Shrink   float64 // backtracking shrink factor in (0,1) (default 0.5)
	Armijo   float64 // sufficient-decrease constant (default 1e-4)
}

func (o *GDOptions) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-9
	}
	if o.StepInit == 0 {
		o.StepInit = 1.0
	}
	if o.Shrink == 0 {
		o.Shrink = 0.5
	}
	if o.Armijo == 0 {
		o.Armijo = 1e-4
	}
}

// Result reports the outcome of an optimization run.
type Result struct {
	X          []float64
	Value      float64
	Iterations int
	// Evaluations counts the objective values computed, line-search trials
	// included: the solver's work in a unit that does not depend on the
	// clock.
	Evaluations int
	Converged   bool
}

// GradientDescent minimizes obj starting from x0 using steepest descent with
// Armijo backtracking line search. It is robust on the small (k*≤66
// dimensional) problems of this codebase and needs no constraint handling.
// Like LBFGS it stops at the floating-point floor: when the decrease the
// line search asks for is no longer representable next to f(x), it has
// converged, whatever GradTol says.
func GradientDescent(obj Objective, x0 []float64, opts GDOptions) (Result, error) {
	if len(x0) == 0 {
		return Result{}, errors.New("optimize: empty starting point")
	}
	opts.defaults()
	x := append([]float64(nil), x0...)
	fx := obj.Value(x)
	evals := 1
	if math.IsNaN(fx) || math.IsInf(fx, 0) {
		return Result{}, errors.New("optimize: objective not finite at start")
	}
	trial := make([]float64, len(x))
	for it := 0; it < opts.MaxIter; it++ {
		g := obj.Grad(x)
		gInf, gSq := 0.0, 0.0
		for _, v := range g {
			a := math.Abs(v)
			if a > gInf {
				gInf = a
			}
			gSq += v * v
		}
		if gInf < opts.GradTol {
			return Result{X: x, Value: fx, Iterations: it, Evaluations: evals, Converged: true}, nil
		}
		// Backtracking line search along −g.
		step := opts.StepInit
		improved := false
		for ls := 0; ls < 60; ls++ {
			// Once the sufficient-decrease term underflows against fx, no
			// step this short can show a representable decrease.
			need := fx - opts.Armijo*step*gSq
			if !(need < fx) {
				break
			}
			for i := range x {
				trial[i] = x[i] - step*g[i]
			}
			ft := obj.Value(trial)
			evals++
			if ft <= need {
				copy(x, trial)
				fx = ft
				improved = true
				break
			}
			step *= opts.Shrink
		}
		if !improved {
			// Line search failed: gradient direction yields no decrease at
			// machine precision — treat as converged.
			return Result{X: x, Value: fx, Iterations: it, Evaluations: evals, Converged: true}, nil
		}
	}
	return Result{X: x, Value: fx, Iterations: opts.MaxIter, Evaluations: evals, Converged: false}, nil
}

// FiniteDiffGrad computes a central-difference gradient of f at x with step
// h. Used by tests to validate analytic gradients and by objectives that
// have no closed-form gradient.
func FiniteDiffGrad(f func([]float64) float64, x []float64, h float64) []float64 {
	g := make([]float64, len(x))
	xx := append([]float64(nil), x...)
	for i := range x {
		xx[i] = x[i] + h
		fp := f(xx)
		xx[i] = x[i] - h
		fm := f(xx)
		xx[i] = x[i]
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

// FuncObjective adapts a value function (with optional gradient) to the
// Objective interface; a nil gradient falls back to central differences.
type FuncObjective struct {
	F  func([]float64) float64
	G  func([]float64) []float64
	FD float64 // finite-difference step when G is nil (default 1e-6)
}

// Value implements Objective.
func (f FuncObjective) Value(x []float64) float64 { return f.F(x) }

// Grad implements Objective.
func (f FuncObjective) Grad(x []float64) []float64 {
	if f.G != nil {
		return f.G(x)
	}
	h := f.FD
	if h == 0 {
		h = 1e-6
	}
	return FiniteDiffGrad(f.F, x, h)
}
