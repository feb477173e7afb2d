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
