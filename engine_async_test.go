package factorgraph

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"factorgraph/internal/core"
	"factorgraph/internal/graph"
)

// TestEngineAsyncCompactParity is the background-compaction acceptance
// property: with AsyncCompact on, fraction-triggered compactions are built
// by the compactor goroutine and installed by epoch swap, mutations never
// block on a merge (meta.Compacted stays false outside forced paths), and
// the final beliefs still match a cold build of the final edge set to 1e-6.
func TestEngineAsyncCompactParity(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1500, 6000, 0.05)
	inc, err := NewEngine(g, seeds, 3, EngineOptions{
		AsyncCompact: true, CompactFraction: 0.02,
		ResidualTol: 1e-10, ResidualEdgeBudget: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err) // warm: the one full solve
	}

	rng := rand.New(rand.NewSource(23))
	edges := edgeSetOf(g)
	n := g.N
	sawPending := false
	for round := 0; round < 15; round++ {
		var muts []EdgeMutation
		for i := 0; i < 8; i++ {
			if rng.Intn(4) == 0 && len(edges) > 100 {
				list := edgeList(edges)
				e := list[rng.Intn(len(list))]
				muts = append(muts, EdgeMutation{U: int(e[0]), V: int(e[1]), Remove: true})
				delete(edges, e)
			} else {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				a, b := int32(u), int32(v)
				if a > b {
					a, b = b, a
				}
				if edges[[2]int32{a, b}] {
					continue
				}
				muts = append(muts, EdgeMutation{U: u, V: v})
				edges[[2]int32{a, b}] = true
			}
		}
		meta, err := inc.MutateTopology(0, muts)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Compacted {
			t.Fatalf("round %d: async engine compacted on the mutation path (%+v)", round, meta)
		}
		if meta.CompactPending {
			sawPending = true
		}
		// Reads stay serviceable while the compactor runs.
		if _, err := inc.Classify(Query{Nodes: []int{round % n}}); err != nil {
			t.Fatal(err)
		}
		// Drain the background build so each install swaps a clean frozen
		// epoch and the final state below is deterministic.
		inc.WaitCompaction()
	}
	if !sawPending {
		t.Error("threshold crossings never reported CompactPending")
	}
	if _, err := inc.CompactTopology(); err != nil {
		t.Fatal(err) // canonicalize the tail overlay (sync, explicit)
	}

	st := inc.Stats()
	if st.TopoAsyncCompactions == 0 {
		t.Error("no background compactions installed")
	}
	if st.TopoCompactions < st.TopoAsyncCompactions {
		t.Errorf("TopoCompactions %d < TopoAsyncCompactions %d", st.TopoCompactions, st.TopoAsyncCompactions)
	}

	gf, err := graph.New(n, edgeList(edges), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxBeliefDiff(beliefsOf(t, inc), denseReference(t, gf, seeds, inc.Estimate().H)); d > 1e-6 {
		t.Errorf("async-compacted beliefs differ from cold build by %g", d)
	}
	t.Logf("async stats: %d compactions (%d async), %d rescales", st.TopoCompactions, st.TopoAsyncCompactions, st.TopoRescales)
}

// TestReestimateIncremental pins the o(Δ) re-estimation contract: edge
// mutations fold into the cached DCEr sketches in place, so Reestimate on
// a dirty overlay reuses them — no compaction, no fresh summarization —
// and the level-1 sketch matches an exact recomputation (the update is
// exact for ℓ=1, first-order for deeper levels).
func TestReestimateIncremental(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 5000, 0.1)
	inc, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := inc.Stats()
	if base.Summarizations == 0 {
		t.Fatal("construction did not summarize (estimator changed?)")
	}

	edges := edgeSetOf(g)
	rng := rand.New(rand.NewSource(9))
	applied := 0
	for applied < 24 {
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		a, b := int32(u), int32(v)
		if a > b {
			a, b = b, a
		}
		if u == v || edges[[2]int32{a, b}] {
			continue
		}
		muts := []EdgeMutation{{U: u, V: v, W: 1 + rng.Float64()}}
		if applied%3 == 2 && len(edges) > 100 {
			list := edgeList(edges)
			e := list[rng.Intn(len(list))]
			muts = append(muts, EdgeMutation{U: int(e[0]), V: int(e[1]), Remove: true})
			delete(edges, e)
			applied++
		}
		if _, err := inc.MutateTopology(0, muts); err != nil {
			t.Fatal(err)
		}
		edges[[2]int32{a, b}] = true
		applied++
	}

	if _, err := inc.Reestimate(); err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.SketchUpdates != int64(applied) {
		t.Errorf("SketchUpdates = %d, want %d (every effective delta folded in)", st.SketchUpdates, applied)
	}
	if st.Summarizations != base.Summarizations {
		t.Errorf("Reestimate re-summarized (%d → %d): the sketch cache was dropped", base.Summarizations, st.Summarizations)
	}
	if st.TopoCompactions != base.TopoCompactions {
		t.Errorf("Reestimate forced a compaction (%d → %d)", base.TopoCompactions, st.TopoCompactions)
	}
	if ts := inc.TopoStats(); ts.OverlayFraction == 0 {
		t.Error("overlay unexpectedly clean: the o(Δ) claim was not exercised")
	}

	// Exactness at ℓ=1: the incrementally maintained M⁽¹⁾ = XᵀWX must
	// match a fresh sketch of the live overlay to numerical noise.
	inc.sumMu.Lock()
	sums := inc.sums
	inc.sumMu.Unlock()
	if sums == nil {
		t.Fatal("sketch cache empty after incremental updates")
	}
	inc.mu.RLock()
	topo := inc.topo
	seedsNow := append([]int(nil), inc.seeds...)
	inc.mu.RUnlock()
	fresh, err := core.SummarizeOn(topo, seedsNow, 3, core.SummaryOptions{
		LMax: 1, NonBacktracking: true, Variant: core.Variant1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, want := sums.M[0].Row(i), fresh.M[0].Row(i)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-9 {
				t.Fatalf("M¹[%d][%d] = %g, want %g (exact level-1 update violated)", i, j, got[j], want[j])
			}
		}
	}
}

// TestReestimateDriftInvalidation: past the drift bound the sketches are
// dropped (first-order error would accumulate) and the next estimate pays
// one fresh summarization of the live overlay — still no compaction.
func TestReestimateDriftInvalidation(t *testing.T) {
	g, seeds, _ := engineFixture(t, 300, 1200, 0.1)
	inc, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := inc.Stats()
	// One batch whose cumulative |Δw| exceeds 5% of the live edge count
	// (the sketch drift bound) while staying spread across distinct rows,
	// so neither the Gershgorin contraction guard nor the overlay-fraction
	// trigger forces a compaction.
	var muts []EdgeMutation
	for i := 0; i < 16; i++ {
		muts = append(muts, EdgeMutation{U: 2 * i, V: 2*i + 1, W: 5})
	}
	if _, err := inc.MutateTopology(0, muts); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Reestimate(); err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.SketchUpdates != 0 {
		t.Errorf("over-drift delta was folded in (SketchUpdates=%d)", st.SketchUpdates)
	}
	if st.Summarizations != base.Summarizations+1 {
		t.Errorf("Summarizations %d → %d, want exactly one fresh sketch pass", base.Summarizations, st.Summarizations)
	}
	if st.TopoCompactions != base.TopoCompactions {
		t.Errorf("drift invalidation forced a compaction (%d → %d)", base.TopoCompactions, st.TopoCompactions)
	}
}

// TestEngineMutateReleaseRace hammers the e.res == res install guards: a
// registry releasing transient state (which nils the residual solver)
// while label patches and topology mutations are mid-flush must abort the
// orphaned patch sessions, not apply them to a replaced solver. Run with
// -race. The engine must stay queryable and converge to parity afterwards.
func TestEngineMutateReleaseRace(t *testing.T) {
	g, seeds, _ := engineFixture(t, 600, 3000, 0.1)
	eng, err := NewEngine(g, seeds, 3, EngineOptions{CompactFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	wg.Add(1)
	go func() { // topology mutator: fresh edges, no self-loops
		defer wg.Done()
		for i := 0; i < 60; i++ {
			u, v := (i*7)%g.N, (i*13+1)%g.N
			if u == v {
				v = (v + 1) % g.N
			}
			if _, err := eng.MutateTopology(0, []EdgeMutation{{U: u, V: v}}); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // label patcher
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := eng.UpdateLabels(map[int]int{(i * 11) % g.N: i % 3}, nil); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the racing release: nils e.res under the flushes
		defer wg.Done()
		for i := 0; i < 30; i++ {
			eng.ReleaseTransient()
			if _, err := eng.Classify(Query{Nodes: []int{i % g.N}}); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Converge and check parity against a cold build of the final state.
	if _, err := eng.CompactTopology(); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.New(g.N, edgeList(edgeSetOf(eng.Graph())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxBeliefDiff(beliefsOf(t, eng), denseReference(t, gf, eng.Seeds(), eng.Estimate().H)); d > 1e-6 {
		t.Errorf("post-race beliefs differ from cold build by %g", d)
	}
}

// TestReestimateSpeedArtifact measures Reestimate on a mutated overlay
// against a cold estimate of the same edge set and emits the o(Δ)
// re-estimation artifact (BENCH_REESTIMATE_OUT) that CI gates with
// benchdiff: the structural counters are asserted here too — zero
// compactions and zero summarizations during mutate+reestimate — because
// they, unlike wall-clock, cannot flake. Skipped in -short.
func TestReestimateSpeedArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node benchmark; run without -short")
	}
	const n, m = 100_000, 200_000
	g, truth, err := Generate(GenerateConfig{N: n, M: m, K: 3, H: SkewedH(3, 8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SampleSeeds(truth, 3, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := inc.Stats()

	const mutations = 300
	edges := edgeSetOf(g)
	applied := 0
	for i := 0; applied < mutations; i++ {
		u, v := (i*17)%n, (i*31+5)%n
		a, b := int32(u), int32(v)
		if a > b {
			a, b = b, a
		}
		if u == v || edges[[2]int32{a, b}] {
			continue
		}
		if _, err := inc.MutateTopology(0, []EdgeMutation{{U: u, V: v}}); err != nil {
			t.Fatal(err)
		}
		edges[[2]int32{a, b}] = true
		applied++
	}

	start := time.Now()
	if _, err := inc.Reestimate(); err != nil {
		t.Fatal(err)
	}
	reestDur := time.Since(start)

	st := inc.Stats()
	compactionsDuring := st.TopoCompactions - base.TopoCompactions
	summarizationsDuring := st.Summarizations - base.Summarizations
	if compactionsDuring != 0 {
		t.Errorf("mutate+reestimate forced %d compaction(s)", compactionsDuring)
	}
	if summarizationsDuring != 0 {
		t.Errorf("mutate+reestimate re-summarized %d time(s)", summarizationsDuring)
	}
	if st.SketchUpdates != mutations {
		t.Errorf("SketchUpdates = %d, want %d", st.SketchUpdates, mutations)
	}

	// Cold reference: estimate the same final edge set from scratch — the
	// O(mkℓ) summarization the sketch updates avoided. Context only.
	gf, err := graph.New(n, edgeList(edges), nil)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := EstimateBy("dcer", gf, seeds, 3, EstimateOptions{}); err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(start)
	speedup := float64(coldDur) / float64(reestDur)
	t.Logf("reestimate after %d mutations: %v vs cold estimate %v — %.1f× (%d sketch updates)",
		mutations, reestDur, coldDur, speedup, st.SketchUpdates)

	if out := os.Getenv("BENCH_REESTIMATE_OUT"); out != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"nodes":                 n,
			"edges":                 m,
			"mutations":             mutations,
			"sketch_updates":        st.SketchUpdates,
			"compactions_during":    compactionsDuring,
			"summarizations_during": summarizationsDuring,
			"reestimate_ms":         float64(reestDur) / float64(time.Millisecond),
			"cold_estimate_ms":      float64(coldDur) / float64(time.Millisecond),
			"speedup":               speedup,
			"timestamp":             time.Now().UTC().Format(time.RFC3339),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("wrote re-estimation artifact to %s", out)
	}
}
