package propagation

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

// ring builds an even cycle, 2-colorable with perfect heterophily.
func ring(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	edges := make([][2]int32, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int32{int32(i), int32((i + 1) % n)}
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func heteroH() *dense.Matrix {
	return dense.FromRows([][]float64{{0.1, 0.9}, {0.9, 0.1}})
}

func homoH() *dense.Matrix {
	return dense.FromRows([][]float64{{0.9, 0.1}, {0.1, 0.9}})
}

func seedVector(n int, known map[int]int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = labels.Unlabeled
	}
	for i, c := range known {
		s[i] = c
	}
	return s
}

func TestLinBPHeterophilyRing(t *testing.T) {
	const n = 20
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0})
	x, err := labels.Matrix(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := LinBPLabels(w, x, heteroH(), LinBPOptions{Iterations: 30, Center: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if pred[i] != i%2 {
			t.Fatalf("node %d labeled %d, want alternating %d; preds %v", i, pred[i], i%2, pred)
		}
	}
}

func TestLinBPHomophilyRing(t *testing.T) {
	const n = 20
	w := ring(t, n)
	// Two seeds on opposite sides; homophily H propagates same labels.
	seed := seedVector(n, map[int]int{0: 0, 10: 1})
	x, _ := labels.Matrix(seed, 2)
	pred, err := LinBPLabels(w, x, homoH(), LinBPOptions{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if pred[1] != 0 || pred[19] != 0 {
		t.Errorf("neighbors of seed 0 not class 0: %v", pred)
	}
	if pred[9] != 1 || pred[11] != 1 {
		t.Errorf("neighbors of seed 10 not class 1: %v", pred)
	}
}

// Property (Theorem 3.1): centering is unnecessary — LinBP labels are
// identical with H or H̃, X or X̃ (for the same ε).
func TestCenteringInvarianceProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(71, 72))
	f := func() bool {
		n := 8 + r.IntN(12)
		k := 2 + r.IntN(3)
		var edges [][2]int32
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					edges = append(edges, [2]int32{int32(i), int32(j)})
				}
			}
		}
		if len(edges) == 0 {
			return true
		}
		w, err := sparse.NewSymmetricFromEdges(n, edges, nil)
		if err != nil {
			return false
		}
		seed := make([]int, n)
		for i := range seed {
			if r.Float64() < 0.3 {
				seed[i] = r.IntN(k)
			} else {
				seed[i] = labels.Unlabeled
			}
		}
		seed[0] = 0
		x, err := labels.Matrix(seed, k)
		if err != nil {
			return false
		}
		// Random symmetric doubly-stochastic-ish H via symmetrized dirichlet
		// rows is overkill; use convex combo of identity and uniform plus a
		// symmetric perturbation pattern.
		h := dense.Constant(k, k, 1/float64(k))
		a := r.Float64() * 0.5
		for i := 0; i < k; i++ {
			h.Set(i, i, h.At(i, i)+a)
			h.Set(i, (i+1)%k, h.At(i, (i+1)%k)-a/2)
			h.Set((i+1)%k, i, h.At((i+1)%k, i)-a/2)
		}
		// Few iterations with identical ε: compute ε from centered version
		// for both runs.
		opts := LinBPOptions{Iterations: 5, S: 0.5}
		opts.Center = true
		predCentered, err := LinBPLabels(w, x, h, opts)
		if err != nil {
			return false
		}
		// Uncentered run, but force the same ε by pre-centering H scale:
		// LinBP computes ε from the H it is given; to apply Theorem 3.1 we
		// must compare H vs H̃ under the same ε. Centered H̃ = H − 1/k has
		// the same ρ as used in the first run, so pass Center=false with
		// pre-centered X only — i.e. H uncentered, X uncentered.
		hTilde := dense.AddScalar(h, -1.0/float64(k))
		eps, err := ScalingFactor(w, hTilde, 0.5)
		if err != nil {
			return false
		}
		predUncentered := linBPRaw(w, x, h, eps, 5)
		for i := range predCentered {
			if predCentered[i] != predUncentered[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// linBPRaw runs the update F ← X + εWFH without any centering, mirroring
// Eq. 4 exactly; used to validate Theorem 3.1 against the library path.
func linBPRaw(w *sparse.CSR, x, h *dense.Matrix, eps float64, iters int) []int {
	hs := dense.Scale(h, eps)
	f := x.Clone()
	for it := 0; it < iters; it++ {
		f = dense.Add(x, w.MulDense(dense.Mul(f, hs)))
	}
	return dense.ArgmaxRows(f)
}

func TestEnergyZeroAtFixedPoint(t *testing.T) {
	// Iterate far past convergence; the energy of Proposition 3.2 must be
	// ~0 at the fixed point.
	const n = 16
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0, 7: 1})
	x, _ := labels.Matrix(seed, 2)
	k := 2
	hTilde := dense.AddScalar(heteroH(), -1.0/float64(k))
	eps, err := ScalingFactor(w, hTilde, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hs := dense.Scale(hTilde, eps)
	xt := dense.AddScalar(x, -1.0/float64(k))
	f := xt.Clone()
	for it := 0; it < 500; it++ {
		f = dense.Add(xt, w.MulDense(dense.Mul(f, hs)))
	}
	e, err := Energy(w, f, xt, hs)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-12 {
		t.Errorf("energy at fixed point = %v, want ~0", e)
	}
	// A perturbed F must have strictly higher energy.
	fPert := f.Clone()
	fPert.Set(3, 0, fPert.At(3, 0)+0.5)
	e2, _ := Energy(w, fPert, xt, hs)
	if e2 <= e {
		t.Errorf("perturbed energy %v not larger than fixed point %v", e2, e)
	}
}

func TestScalingFactorConvergence(t *testing.T) {
	// With ε = s/(ρ(W)ρ(H)) and s<1 the iteration converges: iterates stop
	// changing. With s>1 on the same graph it diverges (Example C.1).
	const n = 30
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0, 15: 1})
	x, _ := labels.Matrix(seed, 2)
	h := dense.AddScalar(heteroH(), -0.5)
	for _, tc := range []struct {
		s        float64
		converge bool
	}{{0.5, true}, {3.0, false}} {
		eps, err := ScalingFactor(w, h, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		hs := dense.Scale(h, eps)
		f := x.Clone()
		var prev *dense.Matrix
		for it := 0; it < 300; it++ {
			prev = f
			f = dense.Add(x, w.MulDense(dense.Mul(f, hs)))
		}
		delta := dense.FrobeniusDist(f, prev)
		if tc.converge && delta > 1e-9 {
			t.Errorf("s=%v: did not converge, Δ=%v", tc.s, delta)
		}
		if !tc.converge && delta < 1e3 {
			t.Errorf("s=%v: expected divergence, Δ=%v", tc.s, delta)
		}
	}
}

func TestLinBPShapeErrors(t *testing.T) {
	w := ring(t, 6)
	x := dense.New(5, 2) // wrong rows
	if _, err := LinBP(w, x, heteroH(), LinBPOptions{}); err == nil {
		t.Error("expected row-mismatch error")
	}
	x2 := dense.New(6, 3) // k mismatch
	if _, err := LinBP(w, x2, heteroH(), LinBPOptions{}); err == nil {
		t.Error("expected k-mismatch error")
	}
	if _, err := LinBP(w, dense.New(6, 2), dense.New(2, 3), LinBPOptions{}); err == nil {
		t.Error("expected square-H error")
	}
	if _, err := ScalingFactor(w, heteroH(), -1); err == nil {
		t.Error("expected bad-s error")
	}
}

func TestHarmonicHomophily(t *testing.T) {
	// Two cliques joined by one edge; seeds in each clique spread by
	// homophily.
	var edges [][2]int32
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
			edges = append(edges, [2]int32{int32(i + 5), int32(j + 5)})
		}
	}
	edges = append(edges, [2]int32{4, 5})
	w, err := sparse.NewSymmetricFromEdges(10, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed := seedVector(10, map[int]int{0: 0, 9: 1})
	pred, err := Harmonic(w, seed, 2, HarmonicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if pred[i] != 0 {
			t.Errorf("clique-A node %d labeled %d", i, pred[i])
		}
	}
	for i := 5; i < 10; i++ {
		if pred[i] != 1 {
			t.Errorf("clique-B node %d labeled %d", i, pred[i])
		}
	}
}

func TestHarmonicFailsUnderHeterophily(t *testing.T) {
	// On a heterophilous ring, harmonic functions (homophily assumption)
	// must do poorly: near the seed it predicts the same class, which is
	// wrong for alternating truth (Figure 6i's point).
	const n = 20
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0})
	pred, err := Harmonic(w, seed, 2, HarmonicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pred[1] == 1 && pred[19] == 1 {
		t.Skip("harmonic unexpectedly matched heterophily") // should not happen
	}
	correct := 0
	for i := 1; i < n; i++ {
		if pred[i] == i%2 {
			correct++
		}
	}
	acc := float64(correct) / float64(n-1)
	if acc > 0.6 {
		t.Errorf("harmonic accuracy %v under heterophily, expected poor", acc)
	}
}

func TestMultiRankWalkHomophily(t *testing.T) {
	var edges [][2]int32
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
			edges = append(edges, [2]int32{int32(i + 5), int32(j + 5)})
		}
	}
	edges = append(edges, [2]int32{4, 5})
	w, err := sparse.NewSymmetricFromEdges(10, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed := seedVector(10, map[int]int{0: 0, 9: 1})
	pred, err := MultiRankWalk(w, seed, 2, MRWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pred[1] != 0 || pred[8] != 1 {
		t.Errorf("MRW predictions wrong: %v", pred)
	}
}

func TestMultiRankWalkErrors(t *testing.T) {
	w := ring(t, 6)
	if _, err := MultiRankWalk(w, []int{0}, 2, MRWOptions{}); err == nil {
		t.Error("expected length error")
	}
	if _, err := MultiRankWalk(w, seedVector(6, map[int]int{0: 0}), 2, MRWOptions{Alpha: 1.5}); err == nil {
		t.Error("expected alpha range error")
	}
	if _, err := Harmonic(w, []int{0}, 2, HarmonicOptions{}); err == nil {
		t.Error("expected length error")
	}
}

func TestDefaultLinBPOptions(t *testing.T) {
	o := DefaultLinBPOptions()
	if o.S != 0.5 || o.Iterations != 10 || !o.Center {
		t.Errorf("defaults changed: %+v", o)
	}
}

func TestScalingFactorDegenerate(t *testing.T) {
	// Empty graph: ε defaults to 1.
	e, _ := sparse.NewFromCoords(3, nil)
	eps, err := ScalingFactor(e, heteroH(), 0.5)
	if err != nil || eps != 1 {
		t.Errorf("degenerate ε = %v, err %v", eps, err)
	}
}

// TestNonFiniteSRefused: NaN and ±Inf convergence parameters are errors,
// not all-NaN beliefs.
func TestNonFiniteSRefused(t *testing.T) {
	w := ring(t, 8)
	x, _ := labels.Matrix(seedVector(8, map[int]int{0: 0}), 2)
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := LinBP(w, x, heteroH(), LinBPOptions{S: s}); err == nil {
			t.Errorf("LinBP accepted s=%v", s)
		}
		if _, err := ScalingFactorWithRho(2, heteroH(), s); err == nil {
			t.Errorf("ScalingFactorWithRho accepted s=%v", s)
		}
	}
}

func TestLinBPBeliefsBounded(t *testing.T) {
	const n = 24
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0, 13: 1})
	x, _ := labels.Matrix(seed, 2)
	f, err := LinBP(w, x, heteroH(), LinBPOptions{Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if dense.MaxAbs(f) > 10 || math.IsNaN(dense.MaxAbs(f)) {
		t.Errorf("beliefs unbounded after 100 centered iterations: max %v", dense.MaxAbs(f))
	}
}
