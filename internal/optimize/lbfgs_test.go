package optimize

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLBFGSQuadratic(t *testing.T) {
	q := quadratic{a: []float64{1, 100, 0.1}, c: []float64{2, -1, 3}} // ill-conditioned
	res, err := LBFGS(q, []float64{0, 0, 0}, LBFGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("LBFGS did not converge on a quadratic")
	}
	for i := range q.c {
		if math.Abs(res.X[i]-q.c[i]) > 1e-5 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], q.c[i])
		}
	}
}

func TestLBFGSRosenbrockFasterThanGD(t *testing.T) {
	rosen := FuncObjective{
		F: func(x []float64) float64 {
			return 100*math.Pow(x[1]-x[0]*x[0], 2) + math.Pow(1-x[0], 2)
		},
	}
	res, err := LBFGS(rosen, []float64{-1.2, 1}, LBFGSOptions{MaxIter: 2000, GradTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("LBFGS Rosenbrock min = %v, want (1,1)", res.X)
	}
	// GD needs tens of thousands of iterations on Rosenbrock; LBFGS should
	// be at least an order of magnitude cheaper.
	if res.Iterations > 2000 {
		t.Errorf("LBFGS took %d iterations", res.Iterations)
	}
}

// Property: LBFGS finds the minimizer of random strictly convex quadratics.
func TestLBFGSQuadraticProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(111, 112))
	f := func() bool {
		dim := 1 + r.IntN(8)
		q := quadratic{a: make([]float64, dim), c: make([]float64, dim)}
		for i := 0; i < dim; i++ {
			q.a[i] = 0.1 + 10*r.Float64()
			q.c[i] = 3 * r.NormFloat64()
		}
		res, err := LBFGS(q, make([]float64, dim), LBFGSOptions{MaxIter: 1000})
		if err != nil {
			return false
		}
		for i := range q.c {
			if math.Abs(res.X[i]-q.c[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Along a slope that never flattens no step satisfies the curvature
// condition; the line search must still move (by the longest step it found
// decreasing) and the run must end at MaxIter, not report convergence.
func TestLBFGSUnboundedNonConverged(t *testing.T) {
	slope := FuncObjective{
		F: func(x []float64) float64 { return x[0] },
		G: func(x []float64) []float64 { return []float64{1} },
	}
	res, err := LBFGS(slope, []float64{0}, LBFGSOptions{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 3 {
		t.Errorf("unbounded problem: converged=%v after %d iterations", res.Converged, res.Iterations)
	}
	if !(res.Value < -1) || res.Value != res.X[0] {
		t.Errorf("unbounded problem stopped at f(%v) = %v", res.X, res.Value)
	}
}

func TestLBFGSErrors(t *testing.T) {
	if _, err := LBFGS(quadratic{a: []float64{1}, c: []float64{0}}, nil, LBFGSOptions{}); err == nil {
		t.Error("expected empty-start error")
	}
	bad := FuncObjective{F: func(x []float64) float64 { return math.Inf(1) }}
	if _, err := LBFGS(bad, []float64{1}, LBFGSOptions{}); err == nil {
		t.Error("expected non-finite error")
	}
}

func TestDotAxpy(t *testing.T) {
	if dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("dot")
	}
	dst := []float64{1, 1}
	axpy(dst, []float64{2, 3}, 2)
	if dst[0] != 5 || dst[1] != 7 {
		t.Errorf("axpy = %v", dst)
	}
}

// refLBFGS is LBFGS as it was before its storage moved to one slab, its
// correction pairs to a ring and its axpys into the dot products after
// them: a fresh s and y per stored pair, the history shifted on eviction,
// every product its own pass. LBFGS must reproduce it bit for bit.
func refLBFGS(obj Objective, x0 []float64, opts LBFGSOptions) Result {
	dim := len(x0)
	opts.defaults(dim)
	x := append([]float64(nil), x0...)
	fx := obj.Value(x)
	evals := 1
	g := append([]float64(nil), obj.Grad(x)...)
	gNew := make([]float64, dim)
	type pair struct {
		s, y []float64
		rho  float64
	}
	hist := make([]pair, 0, opts.Memory)
	s, y := make([]float64, dim), make([]float64, dim)
	dir, trial := make([]float64, dim), make([]float64, dim)
	alpha := make([]float64, opts.Memory)
	for it := 0; it < opts.MaxIter; it++ {
		gInf := 0.0
		for _, v := range g {
			gInf = math.Max(gInf, math.Abs(v))
		}
		if gInf < opts.GradTol {
			return Result{X: x, Value: fx, Iterations: it, Evaluations: evals, Converged: true}
		}
		copy(dir, g)
		for i := len(hist) - 1; i >= 0; i-- {
			alpha[i] = hist[i].rho * dot(hist[i].s, dir)
			axpy(dir, hist[i].y, -alpha[i])
		}
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			if gamma := dot(last.s, last.y) / dot(last.y, last.y); gamma > 0 && !math.IsNaN(gamma) {
				for i := range dir {
					dir[i] *= gamma
				}
			}
		}
		for i := range hist {
			beta := hist[i].rho * dot(hist[i].y, dir)
			axpy(dir, hist[i].s, alpha[i]-beta)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		dg := dot(dir, g)
		if dg >= 0 || math.IsNaN(dg) {
			for i := range dir {
				dir[i] = -g[i]
			}
			dg = -dot(g, g)
		}
		lo, hi, step, accepted := 0.0, math.Inf(1), 1.0, false
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
				return Result{X: x, Value: fx, Iterations: it, Evaluations: evals, Converged: true}
			}
			for i := range x {
				trial[i] = x[i] + lo*dir[i]
			}
			fNew = obj.Value(trial)
			evals++
			copy(gNew, obj.Grad(trial))
		}
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
	return Result{X: x, Value: fx, Iterations: opts.MaxIter, Evaluations: evals}
}

// extendedRosenbrock is Σ 100(x_{i+1} − x_i²)² + (1 − x_i)² with its
// analytic gradient: nonconvex, coupled, and long enough a run to fill and
// wrap every history length.
var extendedRosenbrock = FuncObjective{
	F: func(x []float64) float64 {
		f := 0.0
		for i := 0; i+1 < len(x); i++ {
			a, b := x[i+1]-x[i]*x[i], 1-x[i]
			f += 100*a*a + b*b
		}
		return f
	},
	G: func(x []float64) []float64 {
		g := make([]float64, len(x))
		for i := 0; i+1 < len(x); i++ {
			a := x[i+1] - x[i]*x[i]
			g[i] += -400*a*x[i] - 2*(1-x[i])
			g[i+1] += 200 * a
		}
		return g
	},
}

// LBFGS returns the reference's iterate, energy and counts bit for bit, at
// history lengths from one pair to more than the run needs, and its X is
// its own: full-capacity, shared with no other run.
func TestLBFGSMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(113, 114))
	for _, dim := range []int{2, 3, 6, 10} {
		for _, memory := range []int{1, 2, 3, 0, 40} {
			x0 := make([]float64, dim)
			for i := range x0 {
				x0[i] = 2*r.Float64() - 1
			}
			opts := LBFGSOptions{Memory: memory, MaxIter: 400}
			got, err := LBFGS(extendedRosenbrock, x0, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := refLBFGS(extendedRosenbrock, x0, opts)
			same := got.Value == want.Value && got.Iterations == want.Iterations &&
				got.Evaluations == want.Evaluations && got.Converged == want.Converged
			for i := range want.X {
				same = same && math.Float64bits(got.X[i]) == math.Float64bits(want.X[i])
			}
			if !same {
				t.Fatalf("dim %d memory %d: %+v, reference %+v", dim, memory, got, want)
			}
			if cap(got.X) != dim {
				t.Errorf("dim %d memory %d: Result.X has capacity %d, want %d", dim, memory, cap(got.X), dim)
			}
			again, _ := LBFGS(extendedRosenbrock, x0, opts)
			if &again.X[0] == &got.X[0] {
				t.Errorf("dim %d memory %d: two runs share Result.X", dim, memory)
			}
		}
	}
}
