package factorgraph

import (
	"errors"
	"math"
	"testing"
)

// TestEngineSummariesCache asserts that the factorized sketches (M⁽ℓ⁾) are
// computed once per label generation and shared across sketch-based
// estimators: DCEr, DCE and MCE all run off the single cached pass, while
// label updates invalidate it.
func TestEngineSummariesCache(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 12000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 1 {
		t.Fatalf("construction ran %d summarizations, want 1", st.Summarizations)
	}

	// Switching estimators reuses the cached sketches.
	for _, method := range []string{"dcer", "dce", "mce", "DCEr"} {
		if _, err := eng.EstimateWith(method, EstimateOptions{}); err != nil {
			t.Fatalf("EstimateWith(%s): %v", method, err)
		}
	}
	if st := eng.Stats(); st.Summarizations != 1 {
		t.Errorf("estimator switching ran %d summarizations, want 1", st.Summarizations)
	}

	// A shallower ℓmax is served by prefix truncation; a deeper one
	// recomputes (and becomes the new cache).
	if _, err := eng.EstimateWith("dce", EstimateOptions{LMax: 3}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 1 {
		t.Errorf("lmax=3 after lmax=5 ran %d summarizations, want 1", st.Summarizations)
	}
	if _, err := eng.EstimateWith("dce", EstimateOptions{LMax: 7}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 2 {
		t.Errorf("lmax=7 ran %d summarizations, want 2", st.Summarizations)
	}

	// Label updates invalidate the cache: the next estimate re-summarizes
	// at its own depth (dcer ⇒ 5)...
	if err := eng.UpdateLabels(map[int]int{0: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EstimateWith("dcer", EstimateOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 3 {
		t.Errorf("post-update estimate ran %d summarizations, want 3", st.Summarizations)
	}
	// ...shallower estimators reuse its prefix, and H swaps (Reestimate
	// installs a new H over unchanged seeds) reuse it outright.
	if _, err := eng.EstimateWith("mce", EstimateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reestimate(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 3 {
		t.Errorf("Reestimate after warm cache ran %d summarizations, want 3", st.Summarizations)
	}
}

// TestEngineMCEShallowSummaries: an MCE-configured engine summarizes at
// ℓmax=1 only; a later DCE-family request deepens the cache once and MCE
// then reuses its prefix.
func TestEngineMCEShallowSummaries(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 6000, 0.1)
	eng, err := NewEngine(g, seeds, 3, EngineOptions{Estimator: "mce"})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 1 {
		t.Fatalf("mce construction ran %d summarizations, want 1", st.Summarizations)
	}
	if _, err := eng.EstimateWith("dcer", EstimateOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 2 {
		t.Errorf("dcer after mce ran %d summarizations, want 2 (deepen once)", st.Summarizations)
	}
	if _, err := eng.EstimateWith("mce", EstimateOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Summarizations != 2 {
		t.Errorf("mce after deepening ran %d summarizations, want 2 (prefix reuse)", st.Summarizations)
	}
}

// TestEngineCachedEstimateParity asserts the cached-summaries estimation
// path returns the same H as the one-shot facade estimators.
func TestEngineCachedEstimateParity(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 12000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method string
		direct func() (*Estimate, error)
	}{
		{"dcer", func() (*Estimate, error) { return EstimateDCEr(g, seeds, 3) }},
		{"dce", func() (*Estimate, error) { return EstimateDCE(g, seeds, 3) }},
		{"mce", func() (*Estimate, error) { return EstimateMCE(g, seeds, 3) }},
	} {
		cached, err := eng.EstimateWith(tc.method, EstimateOptions{})
		if err != nil {
			t.Fatalf("engine %s: %v", tc.method, err)
		}
		direct, err := tc.direct()
		if err != nil {
			t.Fatalf("direct %s: %v", tc.method, err)
		}
		if cached.Method != direct.Method {
			t.Errorf("%s: method %q vs %q", tc.method, cached.Method, direct.Method)
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a, b := cached.H.At(i, j), direct.H.At(i, j)
				if math.Abs(a-b) > 1e-12 {
					t.Fatalf("%s: H[%d][%d] = %v (cached) vs %v (direct)", tc.method, i, j, a, b)
				}
			}
		}
	}
}

// TestEstimateRejectsBeforeWork: an estimate the engine cannot serve — an
// unknown name, a graph-reading baseline, options that do not fit — is
// refused before it is counted or does any work, even on a dirty overlay:
// Stats() and the overlay fraction do not move. EstimateBy, which does
// serve LCE, refuses the same options with the same sentinels.
func TestEstimateRejectsBeforeWork(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 6000, 0.1)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One new node wired in by one new edge: the overlay is dirty.
	if _, err := eng.MutateTopology(1, []EdgeMutation{{U: g.N, V: 0}}); err != nil {
		t.Fatal(err)
	}
	before, frac := eng.Stats(), eng.TopoStats().OverlayFraction
	if frac == 0 {
		t.Fatal("mutation left the overlay clean")
	}
	for _, tc := range []struct {
		method string
		opts   EstimateOptions
		want   error
	}{
		{"nope", EstimateOptions{}, ErrUnknownEstimator},
		{"lce", EstimateOptions{}, ErrUnknownEstimator},
		{"holdout", EstimateOptions{}, ErrUnknownEstimator},
		{"mce", EstimateOptions{Lambda: 2}, ErrEstimateOptions},
		{"dcer", EstimateOptions{LMax: -1}, ErrEstimateOptions},
	} {
		if _, err := eng.EstimateWith(tc.method, tc.opts); !errors.Is(err, tc.want) {
			t.Errorf("EstimateWith(%q, %+v): err=%v, want %v", tc.method, tc.opts, err, tc.want)
		}
		if tc.want == ErrEstimateOptions {
			if _, err := EstimateBy(tc.method, g, seeds, 3, tc.opts); !errors.Is(err, tc.want) {
				t.Errorf("EstimateBy(%q, %+v): err=%v, want %v", tc.method, tc.opts, err, tc.want)
			}
		}
	}
	if after := eng.Stats(); after != before {
		t.Errorf("refused estimates moved the counters:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := eng.TopoStats().OverlayFraction; got != frac {
		t.Errorf("refused estimates moved the overlay fraction %v -> %v", frac, got)
	}
}

// TestEngineFootprintCountsSketch: an estimated engine's footprint counts
// its cached sketch's retained walks, (ℓmax − 1)·8·n·k bytes, and falls by
// exactly that when ReleaseTransient or the drift limit drops the cache.
func TestEngineFootprintCountsSketch(t *testing.T) {
	const n, m, k = 1000, 6000, 3
	g, seeds, _ := engineFixture(t, n, m, 0.1)
	eng, err := NewEngine(g, seeds, k)
	if err != nil {
		t.Fatal(err)
	}
	const want = (5 - 1) * 8 * n * k
	if got := eng.sums.MemoryBytes(); got != want {
		t.Fatalf("DCEr sketch retains %d bytes, want %d", got, want)
	}
	// The engine is cold (no query yet), so the sketch is all ReleaseTransient
	// frees.
	if before, after := eng.MemoryFootprint(), eng.ReleaseTransient(); before-after != want {
		t.Errorf("ReleaseTransient freed %d bytes, want the sketch's %d", before-after, want)
	}

	// The drift limit: a batch whose |Δw| passes sketchDriftFraction of the
	// edges drops the cache. The batch also patches the overlay (and may
	// compact), so compare the footprint against its other terms.
	eng, err = NewEngine(g, seeds, k)
	if err != nil {
		t.Fatal(err)
	}
	rest := func() int64 {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		b := csrBytes(eng.g.N, eng.g.M, eng.g.Adj.Data != nil) + eng.topo.MemoryBytes() + 8*int64(eng.liveN())
		if eng.res != nil {
			b += eng.res.MemoryBytes()
		}
		return b
	}
	if got := eng.MemoryFootprint() - rest(); got != want {
		t.Fatalf("footprint holds %d sketch bytes, want %d", got, want)
	}
	var muts []EdgeMutation
	for u := 0; u < n && len(muts) < sketchDriftFraction*m+10; u++ {
		cols, _ := g.Adj.Row(u)
		for _, v := range cols {
			if int(v) > u {
				muts = append(muts, EdgeMutation{U: u, V: int(v), Remove: true})
				break
			}
		}
	}
	if _, err := eng.MutateTopology(0, muts); err != nil {
		t.Fatal(err)
	}
	if eng.sums != nil {
		t.Fatalf("%d removals left the sketch cached past the drift limit", len(muts))
	}
	if got := eng.MemoryFootprint() - rest(); got != 0 {
		t.Errorf("footprint still holds %d sketch bytes after the drift limit dropped it", got)
	}
}

func TestEngineClose(t *testing.T) {
	g, seeds, _ := engineFixture(t, 500, 3000, 0.1)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fp := eng.MemoryFootprint(); fp <= 0 {
		t.Fatalf("memory footprint %d, want > 0", fp)
	}
	// Footprint grows with graph size.
	if EstimateEngineBytes(1000, 5000, 3, false) <= EstimateEngineBytes(100, 500, 3, false) {
		t.Error("footprint estimate not monotone in graph size")
	}

	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Classify(Query{Nodes: []int{0}}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Classify after Close: err=%v, want ErrEngineClosed", err)
	}
	if _, err := eng.Classify(Query{Nodes: []int{0}, ExtraSeeds: map[int]int{0: 1}}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("overlay Classify after Close: err=%v, want ErrEngineClosed", err)
	}
	if err := eng.UpdateLabels(map[int]int{0: 1}, nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("UpdateLabels after Close: err=%v, want ErrEngineClosed", err)
	}
	if _, err := eng.Reestimate(); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Reestimate after Close: err=%v, want ErrEngineClosed", err)
	}
	if err := eng.SetH(SkewedH(3, 2), "manual"); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("SetH after Close: err=%v, want ErrEngineClosed", err)
	}
}
