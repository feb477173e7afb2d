package optimize

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// quadratic is a convex test objective (x−c)ᵀdiag(a)(x−c).
type quadratic struct {
	a, c []float64
}

func (q quadratic) Value(x []float64) float64 {
	s := 0.0
	for i := range x {
		d := x[i] - q.c[i]
		s += q.a[i] * d * d
	}
	return s
}

func (q quadratic) Grad(x []float64) []float64 {
	g := make([]float64, len(x))
	for i := range x {
		g[i] = 2 * q.a[i] * (x[i] - q.c[i])
	}
	return g
}

func TestGradientDescentQuadratic(t *testing.T) {
	q := quadratic{a: []float64{1, 4, 0.5}, c: []float64{2, -1, 3}}
	res, err := GradientDescent(q, []float64{0, 0, 0}, GDOptions{MaxIter: 2000, GradTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	for i := range q.c {
		if math.Abs(res.X[i]-q.c[i]) > 1e-5 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], q.c[i])
		}
	}
}

// Property: GD on random positive-definite quadratics finds the minimizer.
func TestGradientDescentQuadraticProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(81, 82))
	f := func() bool {
		dim := 1 + r.IntN(6)
		q := quadratic{a: make([]float64, dim), c: make([]float64, dim)}
		for i := 0; i < dim; i++ {
			q.a[i] = 0.5 + 3*r.Float64()
			q.c[i] = 4 * r.NormFloat64()
		}
		x0 := make([]float64, dim)
		res, err := GradientDescent(q, x0, GDOptions{MaxIter: 3000, GradTol: 1e-10})
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

func TestGradientDescentErrors(t *testing.T) {
	q := quadratic{a: []float64{1}, c: []float64{0}}
	if _, err := GradientDescent(q, nil, GDOptions{}); err == nil {
		t.Error("expected empty-start error")
	}
	bad := FuncObjective{F: func(x []float64) float64 { return math.NaN() }}
	if _, err := GradientDescent(bad, []float64{1}, GDOptions{}); err == nil {
		t.Error("expected non-finite error")
	}
}

func TestGradientDescentRosenbrock(t *testing.T) {
	// Rosenbrock: non-convex banana valley, minimum at (1,1).
	rosen := FuncObjective{
		F: func(x []float64) float64 {
			return 100*math.Pow(x[1]-x[0]*x[0], 2) + math.Pow(1-x[0], 2)
		},
	}
	res, err := GradientDescent(rosen, []float64{-1.2, 1}, GDOptions{MaxIter: 50000, GradTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 0.05 || math.Abs(res.X[1]-1) > 0.05 {
		t.Errorf("Rosenbrock min = %v, want (1,1)", res.X)
	}
}

func TestFiniteDiffGrad(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + 3*x[1] }
	g := FiniteDiffGrad(f, []float64{2, 5}, 1e-6)
	if math.Abs(g[0]-4) > 1e-5 || math.Abs(g[1]-3) > 1e-5 {
		t.Errorf("FiniteDiffGrad = %v", g)
	}
}

func TestFuncObjectiveFallback(t *testing.T) {
	f := FuncObjective{F: func(x []float64) float64 { return x[0] * x[0] }}
	g := f.Grad([]float64{3})
	if math.Abs(g[0]-6) > 1e-4 {
		t.Errorf("fallback gradient = %v", g)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + (x[1]+2)*(x[1]+2)
	}
	res, err := NelderMead(f, []float64{0, 0}, NMOptions{MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]+2) > 1e-3 {
		t.Errorf("NM min = %v, want (1,-2)", res.X)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(x []float64) float64 {
		return 100*math.Pow(x[1]-x[0]*x[0], 2) + math.Pow(1-x[0], 2)
	}
	res, err := NelderMead(rosen, []float64{-1.2, 1}, NMOptions{MaxIter: 5000, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 0.01 || math.Abs(res.X[1]-1) > 0.01 {
		t.Errorf("NM Rosenbrock = %v, want (1,1)", res.X)
	}
}

func TestNelderMeadDiscontinuous(t *testing.T) {
	// Step function with a clear basin: NM handles non-smoothness (this is
	// why the Holdout baseline uses it).
	f := func(x []float64) float64 {
		return math.Floor(math.Abs(x[0]-3) * 4)
	}
	res, err := NelderMead(f, []float64{0}, NMOptions{MaxIter: 500, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Errorf("NM on step function stopped at %v (x=%v)", res.Value, res.X)
	}
}

func TestNelderMeadErrors(t *testing.T) {
	if _, err := NelderMead(func(x []float64) float64 { return 0 }, nil, NMOptions{}); err == nil {
		t.Error("expected empty-start error")
	}
}

func TestNelderMeadMaxIterNonConverged(t *testing.T) {
	f := func(x []float64) float64 { return x[0] } // unbounded below
	res, err := NelderMead(f, []float64{0}, NMOptions{MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("unbounded problem reported converged")
	}
}

// Regression: next to a minimum value of about 5.6 a decrease below 1e-15
// is not representable, so descent bottoms out at a gradient near 1e-8 and
// GradTol = 1e-13 is never met. Both solvers used to "accept" steps that
// changed nothing there — the sufficient-decrease term underflows against
// f(x) — and repeat them until MaxIter. Reaching the floor is convergence.
func TestSolversStopAtFloatingPointFloor(t *testing.T) {
	obj := FuncObjective{
		F: func(x []float64) float64 {
			return 1 + math.Cosh(x[0]-1) + 3*math.Cosh(x[1]+2) + 0.5*math.Cosh(x[0]+x[1])
		},
		G: func(x []float64) []float64 {
			both := 0.5 * math.Sinh(x[0]+x[1])
			return []float64{math.Sinh(x[0]-1) + both, 3*math.Sinh(x[1]+2) + both}
		},
	}
	x0 := []float64{0, 0}
	solvers := map[string]func() (Result, error){
		"GradientDescent": func() (Result, error) {
			return GradientDescent(obj, x0, GDOptions{MaxIter: 5000, GradTol: 1e-13})
		},
		"LBFGS": func() (Result, error) {
			return LBFGS(obj, x0, LBFGSOptions{MaxIter: 5000, GradTol: 1e-13})
		},
	}
	want := []float64{1.30706563726, -1.89621510382}
	for name, solve := range solvers {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Iterations > 500 {
			t.Errorf("%s: converged=%v after %d iterations, want convergence at the floor", name, res.Converged, res.Iterations)
		}
		// The floor costs one line search, not one per remaining iteration.
		if res.Evaluations <= res.Iterations || res.Evaluations > 4*res.Iterations+60 {
			t.Errorf("%s: %d evaluations for %d iterations", name, res.Evaluations, res.Iterations)
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-5 {
				t.Errorf("%s: x[%d] = %v, want %v", name, i, res.X[i], want[i])
			}
		}
	}
}
