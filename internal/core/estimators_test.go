package core

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"factorgraph/internal/dense"
	"factorgraph/internal/gen"
	"factorgraph/internal/labels"
	"factorgraph/internal/metrics"
	"factorgraph/internal/optimize"
)

// makeLabeledGraph generates a planted graph and a stratified seed sample.
func makeLabeledGraph(t *testing.T, n, m int, h float64, f float64, seed uint64) (*gen.Result, []int, *dense.Matrix) {
	t.Helper()
	H := HFromSkew(h)
	res, err := gen.Generate(gen.Config{N: n, M: m, Alpha: gen.Balanced(3), H: H, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 99))
	sample, err := labels.SampleStratified(res.Labels, 3, f, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res, sample, H
}

func TestPathWeights(t *testing.T) {
	w := PathWeights(10, 3)
	if len(w) != 3 {
		t.Fatalf("len = %d", len(w))
	}
	// Ratios must be λ; normalization to sum 1.
	if math.Abs(w[1]/w[0]-10) > 1e-9 || math.Abs(w[2]/w[1]-10) > 1e-9 {
		t.Errorf("weight ratios wrong: %v", w)
	}
	sum := w[0] + w[1] + w[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

// Property (Proposition 4.7): the analytic DCE gradient matches central
// finite differences for random P̂ matrices and random parameter points.
func TestDCEGradientMatchesFiniteDifferenceProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 42))
	f := func() bool {
		k := 2 + r.IntN(4)
		lmax := 1 + r.IntN(4)
		s := &Summaries{K: k, LMax: lmax, P: make([]*dense.Matrix, lmax), M: make([]*dense.Matrix, lmax)}
		for l := 0; l < lmax; l++ {
			p := dense.New(k, k)
			for i := range p.Data {
				p.Data[i] = r.Float64()
			}
			s.P[l] = p
			s.M[l] = p
		}
		obj, err := NewDCEObjective(s, PathWeights(5, lmax))
		if err != nil {
			return false
		}
		h := UniformFree(k)
		for i := range h {
			h[i] += 0.2 * r.NormFloat64()
		}
		got := obj.Grad(h)
		want := optimize.FiniteDiffGrad(obj.Value, h, 1e-6)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-4*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refDCEValue and refDCEGrad are the energy and the Proposition 4.7
// gradient written term by term, as DCEObjective computed them before the
// evaluator took the gradient by reverse accumulation:
//
//	G = Σ_ℓ w_ℓ (2ℓ·H^{2ℓ−1} − Σ_{r=0}^{ℓ−1} H^r (P̂+P̂ᵀ) H^{ℓ−1−r})
//
// They are the reference the evaluator is tested against.
func refDCEValue(o *DCEObjective, h []float64) float64 {
	H, err := FromFree(h, o.K)
	if err != nil {
		panic(err)
	}
	powers := dense.Powers(H, len(o.Weights))
	e := 0.0
	for l, w := range o.Weights {
		d := dense.FrobeniusDist(powers[l], o.Phats[l])
		e += w * d * d
	}
	return e
}

func refDCEGrad(o *DCEObjective, h []float64) []float64 {
	H, err := FromFree(h, o.K)
	if err != nil {
		panic(err)
	}
	lmax := len(o.Weights)
	// H⁰..H^{2ℓmax−1}
	powers := make([]*dense.Matrix, 2*lmax)
	powers[0] = dense.Identity(o.K)
	for p := 1; p < 2*lmax; p++ {
		powers[p] = dense.Mul(powers[p-1], H)
	}
	g := dense.New(o.K, o.K)
	for l1, w := range o.Weights {
		l := l1 + 1
		term := dense.Scale(powers[2*l-1], 2*float64(l))
		for r := 0; r < l; r++ {
			mid := dense.Mul(dense.Mul(powers[r], dense.Symmetrize(o.Phats[l1])), powers[l-1-r])
			dense.AddInPlace(term, dense.Scale(mid, -2))
		}
		dense.AddInPlace(g, dense.Scale(term, w))
	}
	return ProjectGradient(g)
}

// randomDCEProblem draws an objective over arbitrary (non-symmetric) P̂ and
// a random symmetric doubly-stochastic point.
func randomDCEProblem(r *rand.Rand, k, lmax int) (*DCEObjective, []float64) {
	s := &Summaries{K: k, LMax: lmax, P: make([]*dense.Matrix, lmax)}
	for l := range s.P {
		s.P[l] = dense.New(k, k)
		for i := range s.P[l].Data {
			s.P[l].Data[i] = r.Float64()
		}
	}
	obj, err := NewDCEObjective(s, PathWeights(10, lmax))
	if err != nil {
		panic(err)
	}
	a := dense.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			v := 0.05 + r.Float64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	h, err := ToFree(Sinkhorn(a, 200))
	if err != nil {
		panic(err)
	}
	return obj, h
}

// Property: the evaluator's energy and reverse-accumulated gradient are the
// term-by-term Proposition 4.7 formulas, for every k and ℓmax in use.
func TestDCEEvaluatorMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(45, 46))
	for k := 2; k <= 7; k++ {
		for lmax := 1; lmax <= 5; lmax++ {
			for rep := 0; rep < 5; rep++ {
				obj, h := randomDCEProblem(r, k, lmax)
				ev := obj.Evaluator()
				want := refDCEValue(obj, h)
				if got := ev.Value(h); math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Fatalf("k=%d ℓmax=%d: energy %v, reference %v", k, lmax, got, want)
				}
				// The projection cancels full-matrix entries of order 1, so
				// that is the scale rounding is relative to.
				wantG := refDCEGrad(obj, h)
				scale := 1.0
				for _, v := range wantG {
					scale = math.Max(scale, math.Abs(v))
				}
				for i, got := range ev.Grad(h) {
					if math.Abs(got-wantG[i]) > 1e-12*scale {
						t.Fatalf("k=%d ℓmax=%d: gradient[%d] = %v, reference %v", k, lmax, i, got, wantG[i])
					}
				}
			}
		}
	}
}

// An evaluator's memory of its last point must not show: whatever it
// evaluated before, it returns what a fresh evaluator returns, bit for bit
// (the restarts of one worker share an evaluator), and in steady state a
// value+gradient pair at a new point allocates nothing.
func TestDCEEvaluatorReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(47, 48))
	obj, a := randomDCEProblem(r, 5, 5)
	_, b := randomDCEProblem(r, 5, 5)
	ev := obj.Evaluator()
	for _, h := range [][]float64{a, a, b, a, b, b} {
		fresh := obj.Evaluator()
		if got, want := ev.Grad(h), fresh.Grad(h); !slices.Equal(got, want) {
			t.Fatalf("reused evaluator gradient %v, fresh %v", got, want)
		}
		if got, want := ev.Value(h), fresh.Value(h); got != want {
			t.Fatalf("reused evaluator energy %v, fresh %v", got, want)
		}
	}
	points := [][]float64{a, b}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		h := points[i%2] // alternate, so every run computes the powers anew
		i++
		ev.Value(h)
		ev.Grad(h)
	})
	if allocs != 0 {
		t.Errorf("value+gradient pair allocates %v times, want 0", allocs)
	}
}

// goldenSketch summarizes a seeded 2 000-node planted graph with 10 % of
// its labels: uniform degrees or power-law, skew-8 planted H.
func goldenSketch(t testing.TB, k int, powerLaw bool, seed uint64) *Summaries {
	t.Helper()
	var dist gen.DegreeDist = gen.Uniform{}
	if powerLaw {
		dist = gen.PowerLaw{Exponent: 0.3}
	}
	res, err := gen.Generate(gen.Config{N: 2000, M: 10000, Alpha: gen.Balanced(k), H: HPlanted(k, 8), Dist: dist, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := labels.SampleStratified(res.Labels, k, 0.1, rand.New(rand.NewPCG(seed, 99)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(res.Graph.Adj, sample, k, DefaultSummaryOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// DCEr on two fixed sketches: the answer is the one recorded before the
// optimisation was rebuilt (PR 20's parent: term-by-term gradient, Armijo
// backtracking, 7 pairs), and the work to reach it — counted, not timed —
// stays under a recorded bound. That parent spent 1 198 iterations and
// 22 178 evaluations on the k = 3 sketch with 3 restarts stopped by MaxIter,
// and 3 000 iterations (every restart at MaxIter) on the k = 5 one; this
// tree spends 247 / 455 and 1 162 / 1 649 with every restart converged
// (TestDCErGoldenBits pins them exactly).
func TestDCErGoldenSketches(t *testing.T) {
	for _, c := range []struct {
		name          string
		k             int
		powerLaw      bool
		seed          uint64
		golden        [][]float64
		maxIterations int // all restarts of one DCEr
		maxEvals      int
		maxAtMaxIter  int // restarts allowed to stop unconverged
	}{
		{"k3-uniform", 3, false, 31, [][]float64{
			{0.089496631404661353, 0.80621536275537753, 0.10428800583996112},
			{0.80621536275537753, 0.1024379424407319, 0.091346694803890571},
			{0.10428800583996112, 0.091346694803890571, 0.80436529935614809},
		}, 400, 800, 0},
		{"k5-powerlaw", 5, true, 32, [][]float64{
			{0.085848197155235853, 0.65918730089655309, 0.057010067369142707, 0.10144318061903096, 0.096511253960037457},
			{0.65918730089655309, 0.086402692223821298, 0.083318049442880363, 0.10775691567205639, 0.063335041764688849},
			{0.057010067369142707, 0.083318049442880363, 0.098851745288749016, 0.6549665424002179, 0.10585359549901008},
			{0.10144318061903096, 0.10775691567205639, 0.6549665424002179, 0.052703213363850962, 0.083130147944843746},
			{0.096511253960037457, 0.063335041764688849, 0.10585359549901008, 0.083130147944843746, 0.65116996083142054},
		}, 1600, 2400, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := goldenSketch(t, c.k, c.powerLaw, c.seed)
			opts := DefaultDCErOptions()
			obj, err := NewDCEObjective(s, PathWeights(opts.Lambda, s.LMax))
			if err != nil {
				t.Fatal(err)
			}
			golden := dense.FromRows(c.golden)
			goldenFree, _ := ToFree(golden)

			// The answer, on one processor and on several.
			var estimates []*dense.Matrix
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				est, err := EstimateDCE(s, opts)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				estimates = append(estimates, est)
			}
			est := estimates[0]
			if !dense.Equal(est, estimates[1], 0) {
				t.Errorf("H differs between GOMAXPROCS 1 and 4:\n%v\n%v", est, estimates[1])
			}
			if d := dense.MaxAbs(dense.Sub(est, golden)); d > 1e-6 {
				t.Errorf("‖H − golden‖∞ = %v, want ≤ 1e-6\n%v", d, est)
			}
			free, _ := ToFree(est)
			if e, g := obj.Value(free), obj.Value(goldenFree); e > g+1e-12 {
				t.Errorf("energy %v above the golden H's %v", e, g)
			}

			// The work.
			results, err := minimizeRestarts(obj, restartPoints(c.k, opts.Restarts, opts.Seed), opts)
			if err != nil {
				t.Fatal(err)
			}
			iterations, evals, atMaxIter := 0, 0, 0
			for _, r := range results {
				iterations += r.Iterations
				evals += r.Evaluations
				if !r.Converged {
					atMaxIter++
				}
			}
			if iterations > c.maxIterations || evals > c.maxEvals {
				t.Errorf("%d iterations and %d evaluations per DCEr, want ≤ %d and ≤ %d", iterations, evals, c.maxIterations, c.maxEvals)
			}
			if atMaxIter > c.maxAtMaxIter {
				t.Errorf("%d of %d restarts stopped by MaxIter, want ≤ %d", atMaxIter, len(results), c.maxAtMaxIter)
			}
		})
	}
}

func TestClosestDoublyStochasticProjectsStochasticMatrix(t *testing.T) {
	// A matrix that is already symmetric doubly stochastic is its own
	// projection.
	H := HFromSkew(3)
	got, err := ClosestDoublyStochastic(H, optimize.GDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.FrobeniusDist(got, H); d > 1e-6 {
		t.Errorf("projection moved a feasible point by %v", d)
	}
}

func TestMCERecoversHOnFullyLabeledGraph(t *testing.T) {
	res, _, H := makeLabeledGraph(t, 3000, 30000, 8, 1, 5)
	sums, err := Summarize(res.Graph.Adj, res.Labels, 3, DefaultSummaryOptions())
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMCE(sums, MCEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.L2(est, H); d > 0.03 {
		t.Errorf("MCE L2 from planted H = %v on fully labeled graph\n%v", d, est)
	}
}

func TestDCERecoversHSparseLabels(t *testing.T) {
	// At f=0.05 with n=5000 MCE degrades but DCE with ℓmax=5 stays close.
	res, sample, H := makeLabeledGraph(t, 5000, 60000, 8, 0.05, 6)
	sums, err := Summarize(res.Graph.Adj, sample, 3, DefaultSummaryOptions())
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateDCE(sums, DefaultDCErOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.L2(est, H); d > 0.15 {
		t.Errorf("DCEr L2 from planted H = %v at f=0.05\n%v", d, est)
	}
}

func TestDCErBeatsOrMatchesDCEEnergy(t *testing.T) {
	res, sample, _ := makeLabeledGraph(t, 4000, 40000, 8, 0.01, 8)
	sums, err := Summarize(res.Graph.Adj, sample, 3, DefaultSummaryOptions())
	if err != nil {
		t.Fatal(err)
	}
	weights := PathWeights(10, sums.LMax)
	obj, err := NewDCEObjective(sums, weights)
	if err != nil {
		t.Fatal(err)
	}
	dce, err := EstimateDCE(sums, DCEOptions{Lambda: 10, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	dcer, err := EstimateDCE(sums, DCEOptions{Lambda: 10, Restarts: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hd, _ := ToFree(dce)
	hr, _ := ToFree(dcer)
	if obj.Value(hr) > obj.Value(hd)+1e-9 {
		t.Errorf("DCEr energy %v worse than DCE %v", obj.Value(hr), obj.Value(hd))
	}
}

func TestDCErParallelRestartsDeterministic(t *testing.T) {
	res, sample, _ := makeLabeledGraph(t, 3000, 30000, 8, 0.01, 14)
	sums, err := Summarize(res.Graph.Adj, sample, 3, DefaultSummaryOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DCEOptions{Lambda: 10, Restarts: 10, Seed: 4}
	a, err := EstimateDCE(sums, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateDCE(sums, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(a, b, 0) {
		t.Error("parallel restarts are not deterministic")
	}
}

func TestEstimateDCEErrors(t *testing.T) {
	s := &Summaries{K: 3, LMax: 1, P: []*dense.Matrix{Uniform(3)}, M: []*dense.Matrix{Uniform(3)}}
	if _, err := EstimateDCE(s, DCEOptions{Lambda: -1}); err == nil {
		t.Error("expected negative-lambda error")
	}
	if _, err := NewDCEObjective(s, []float64{1, 1}); err == nil {
		t.Error("expected too-many-weights error")
	}
}

func TestLCERecoversHOnFullyLabeledGraph(t *testing.T) {
	res, _, H := makeLabeledGraph(t, 3000, 30000, 8, 1, 9)
	est, err := EstimateLCE(res.Graph.Adj, res.Labels, 3, LCEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// LCE minimizes a different (propagation-flavored) energy; it should
	// still identify the heterophily structure: H01 is the largest entry of
	// row 0 and H22 the largest of row 2.
	if est.At(0, 1) <= est.At(0, 0) || est.At(0, 1) <= est.At(0, 2) {
		t.Errorf("LCE missed heterophily structure:\n%v (planted\n%v)", est, H)
	}
	if est.At(2, 2) <= est.At(2, 0) {
		t.Errorf("LCE missed homophily of class 3:\n%v", est)
	}
}

func TestLCEErrors(t *testing.T) {
	res, _, _ := makeLabeledGraph(t, 100, 500, 3, 1, 10)
	if _, err := EstimateLCE(res.Graph.Adj, []int{0}, 3, LCEOptions{}); err == nil {
		t.Error("expected length-mismatch error")
	}
	unl := make([]int, res.Graph.N)
	for i := range unl {
		unl[i] = labels.Unlabeled
	}
	if _, err := EstimateLCE(res.Graph.Adj, unl, 3, LCEOptions{}); err == nil {
		t.Error("expected no-labels error")
	}
}

func TestHoldoutRecoversStructure(t *testing.T) {
	res, sample, H := makeLabeledGraph(t, 1000, 10000, 8, 0.2, 12)
	est, err := EstimateHoldout(res.Graph.Adj, sample, 3, HoldoutOptions{
		Splits: 2,
		NM:     optimize.NMOptions{MaxIter: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSymmetricDoublyStochastic(est, 1e-6) {
		t.Errorf("holdout estimate not doubly stochastic:\n%v", est)
	}
	// Structure check: strong 0↔1 heterophily should be detected.
	if est.At(0, 1) <= est.At(0, 0) {
		t.Errorf("holdout missed heterophily:\nest\n%v planted\n%v", est, H)
	}
}

func TestHoldoutErrors(t *testing.T) {
	res, _, _ := makeLabeledGraph(t, 100, 500, 3, 1, 13)
	if _, err := EstimateHoldout(res.Graph.Adj, []int{0}, 3, HoldoutOptions{}); err == nil {
		t.Error("expected length-mismatch error")
	}
	one := make([]int, res.Graph.N)
	for i := range one {
		one[i] = labels.Unlabeled
	}
	one[0] = 0
	if _, err := EstimateHoldout(res.Graph.Adj, one, 3, HoldoutOptions{}); err == nil {
		t.Error("expected too-few-labels error")
	}
}

func TestHeuristicHL(t *testing.T) {
	// MovieLens-like: clear two-level structure → heuristic close to a
	// doubly-stochastic matrix with matching high/low positions.
	gs := dense.FromRows([][]float64{
		{0.08, 0.45, 0.47},
		{0.45, 0.02, 0.53},
		{0.47, 0.53, 0.00},
	})
	h, err := HeuristicHL(gs)
	if err != nil {
		t.Fatal(err)
	}
	// MovieLens has one high entry pair per row ([L H H; H L H; H H L]),
	// so the scaled pattern is doubly stochastic.
	if !IsSymmetricDoublyStochastic(h, 1e-9) {
		t.Errorf("MovieLens heuristic should be row-constant:\n%v", h)
	}
	// High positions must dominate low positions by exactly 2×.
	if h.At(0, 1) != 2*h.At(0, 0) || h.At(1, 2) != 2*h.At(1, 1) {
		t.Errorf("heuristic lost the H/L pattern:\n%v", h)
	}
	if _, err := HeuristicHL(dense.New(2, 3)); err == nil {
		t.Error("expected non-square error")
	}

	// Prop-37's pattern [H L H; L L H; H H L] has non-constant row sums —
	// the heuristic must NOT repair that (the point of Figure 12).
	prop37 := dense.FromRows([][]float64{
		{0.35, 0.26, 0.38},
		{0.26, 0.12, 0.61},
		{0.38, 0.61, 0.00},
	})
	hp, err := HeuristicHL(prop37)
	if err != nil {
		t.Fatal(err)
	}
	rs := dense.RowSums(hp)
	if math.Abs(rs[0]-rs[1]) < 1e-9 {
		t.Errorf("Prop-37 heuristic rows should be imbalanced: %v", rs)
	}
}

func TestSinkhorn(t *testing.T) {
	m := dense.FromRows([][]float64{{1, 2}, {2, 1}})
	s := Sinkhorn(m, 50)
	if !IsSymmetricDoublyStochastic(s, 1e-6) {
		t.Errorf("Sinkhorn result not doubly stochastic:\n%v", s)
	}
}

// Property: restartPoints always returns r points, the first being uniform,
// all valid parameter vectors.
func TestRestartPointsProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(43, 44))
	f := func() bool {
		k := 2 + r.IntN(6)
		rr := 1 + r.IntN(12)
		pts := restartPoints(k, rr, r.Uint64())
		if len(pts) < 1 {
			return false
		}
		for i, p := range pts {
			if len(p) != NumFree(k) {
				return false
			}
			if i == 0 {
				for _, v := range p {
					if math.Abs(v-1/float64(k)) > 1e-12 {
						return false
					}
				}
			}
			if _, err := FromFree(p, k); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
