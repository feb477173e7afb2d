package residual

import (
	"math"
	"math/rand"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/propagation"
	"factorgraph/internal/sparse"
)

// randGraph builds a random undirected multigraph with n nodes and roughly
// n·deg/2 edges.
func randGraph(t *testing.T, n, deg int, seed int64) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int32, 0, n*deg/2)
	for i := 0; i < n*deg/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// testH is a homophilous k×k compatibility matrix.
func testH(k int, boost float64) *dense.Matrix {
	h := dense.Constant(k, k, (1-boost)/float64(k))
	for i := 0; i < k; i++ {
		h.Set(i, i, h.At(i, i)+boost)
	}
	return h
}

// randX seeds a fraction f of nodes with one-hot labels.
func randX(n, k int, f float64, rng *rand.Rand) *dense.Matrix {
	x := dense.New(n, k)
	for i := 0; i < n; i++ {
		if rng.Float64() < f {
			x.Set(i, rng.Intn(k), 1)
		}
	}
	return x
}

// fixedPoint runs the dense LinBP iteration far past convergence.
func fixedPoint(t *testing.T, w *sparse.CSR, h, x *dense.Matrix) *dense.Matrix {
	t.Helper()
	return fixedPointS(t, w, h, x, 0.5)
}

// fixedPointS is fixedPoint at convergence parameter s.
func fixedPointS(t *testing.T, w *sparse.CSR, h, x *dense.Matrix, s float64) *dense.Matrix {
	t.Helper()
	st, err := propagation.NewState(w, h, propagation.LinBPOptions{S: s, Iterations: 120, Center: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	return f.Clone()
}

// applyPatch drains a change the way the engine serves one: a session on s
// takes the deltas queue adds, flushes, and is applied.
func applyPatch(s *State, queue func(p *Patch)) Stats {
	p := s.BeginPatch()
	queue(p)
	st := p.Flush()
	p.Apply()
	return st
}

func maxAbsDiff(a, b *dense.Matrix) float64 {
	m := 0.0
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// TestInitMatchesFixedPoint: Init's dense sweeps land on the same fixed
// point as the propagation package's iteration.
func TestInitMatchesFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := randGraph(t, 400, 8, 11)
	h := testH(3, 0.5)
	x := randX(400, 3, 0.1, rng)

	s, err := NewState(w, h, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Init(x)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweeps == 0 {
		t.Error("Init reported zero sweeps")
	}
	want := fixedPoint(t, w, h, x)
	if d := maxAbsDiff(s.Beliefs(), want); d > 1e-9 {
		t.Errorf("Init beliefs differ from fixed point by %g", d)
	}
	if mr := s.MaxResidual(); mr > 1e-12 {
		t.Errorf("post-Init max residual %g > tol", mr)
	}
}

// TestPatchParityRandomSequence is the randomized property test of the
// issue: a random graph, a random sequence of seed patches, each flushed
// incrementally, must agree with a from-scratch propagation on the final
// seed state within 1e-6.
func TestPatchParityRandomSequence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		n, k := 300, 3
		w := randGraph(t, n, 6, seed)
		h := testH(k, 0.4)
		x := randX(n, k, 0.08, rng)

		s, err := NewState(w, h, Options{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Init(x); err != nil {
			t.Fatal(err)
		}

		var totalPushed int
		for patch := 0; patch < 25; patch++ {
			// Random patch: set, change or clear 1-4 seeds.
			st := applyPatch(s, func(p *Patch) {
				for c := 0; c < 1+rng.Intn(4); c++ {
					node := rng.Intn(n)
					row := x.Row(node)
					delta := make([]float64, k)
					for j := range delta {
						delta[j] = -row[j]
						row[j] = 0
					}
					if rng.Float64() < 0.8 { // 20% of patches clear the seed
						c := rng.Intn(k)
						delta[c] += 1
						row[c] = 1
					}
					p.AddDelta(node, delta)
				}
			})
			totalPushed += st.Pushed
		}
		if totalPushed == 0 {
			t.Fatalf("seed %d: no pushes across 25 patches", seed)
		}
		want := fixedPoint(t, w, h, x)
		if d := maxAbsDiff(s.Beliefs(), want); d > 1e-6 {
			t.Errorf("seed %d: incremental beliefs differ from full propagation by %g", seed, d)
		}
	}
}

// TestPatchIsLocal: on a graph with an isolated far region, a single-seed
// patch must push only the perturbed neighborhood, not the whole graph.
func TestPatchIsLocal(t *testing.T) {
	// Two 100-node communities joined by nothing: patching in one must
	// never push nodes of the other.
	n := 200
	rng := rand.New(rand.NewSource(5))
	edges := make([][2]int32, 0, 600)
	for i := 0; i < 300; i++ {
		u, v := rng.Intn(100), rng.Intn(100)
		if u != v {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
		u, v = 100+rng.Intn(100), 100+rng.Intn(100)
		if u != v {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := testH(3, 0.5)
	x := randX(n, 3, 0.1, rng)
	// On a 200-node toy graph the frontier saturates a community long
	// before the tolerance bites, so give the push loop ample budget: the
	// point here is isolation, not push-vs-sweep economics.
	s, err := NewState(w, h, Options{EdgeBudgetFactor: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	before := s.Beliefs().Clone()

	st := applyPatch(s, func(p *Patch) { p.AddDelta(7, []float64{1, 0, 0}) })
	if st.Pushed == 0 {
		t.Fatal("patch pushed nothing")
	}
	if st.FellBack {
		t.Fatal("local patch fell back to dense sweeps")
	}
	// The second community's rows must be bit-identical.
	for i := 100; i < 200; i++ {
		for j := 0; j < 3; j++ {
			if s.Beliefs().At(i, j) != before.At(i, j) {
				t.Fatalf("patch in community A mutated node %d of community B", i)
			}
		}
	}
}

// TestFlushFallback: a patch that perturbs most of the graph must trip the
// edge budget and finish with dense sweeps, still converging.
func TestFlushFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, k := 300, 3
	w := randGraph(t, n, 8, 9)
	h := testH(k, 0.5)
	x := randX(n, k, 0.1, rng)
	s, err := NewState(w, h, Options{EdgeBudgetFactor: 1, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	// Flip every node's seed: the frontier is the whole graph.
	st := applyPatch(s, func(p *Patch) {
		for i := 0; i < n; i++ {
			row := x.Row(i)
			delta := make([]float64, k)
			for j := range delta {
				delta[j] = -row[j]
				row[j] = 0
			}
			c := (i + 1) % k
			delta[c] += 1
			row[c] = 1
			p.AddDelta(i, delta)
		}
	})
	if !st.FellBack {
		t.Error("whole-graph patch did not fall back to dense sweeps")
	}
	if st.Sweeps == 0 {
		t.Error("fallback reported zero sweeps")
	}
	want := fixedPoint(t, w, h, x)
	if d := maxAbsDiff(s.Beliefs(), want); d > 1e-6 {
		t.Errorf("post-fallback beliefs differ from full propagation by %g", d)
	}
}

// TestStateValidation covers constructor and Init error paths.
func TestStateValidation(t *testing.T) {
	w := randGraph(t, 20, 4, 1)
	h := testH(3, 0.5)
	if _, err := NewState(w, dense.New(3, 2), Options{}); err == nil {
		t.Error("non-square H accepted")
	}
	if _, err := NewState(w, h, Options{S: 1.5}); err == nil {
		t.Error("s >= 1 accepted")
	}
	if _, err := NewState(w, h, Options{Tol: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
	s, err := NewState(w, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(dense.New(19, 3)); err == nil {
		t.Error("short X accepted")
	}
}
