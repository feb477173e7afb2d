package factorgraph

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/propagation"
	"factorgraph/internal/residual"
)

// warmParityEngine builds a warm engine whose beliefs are comparable to the
// dense reference (denseReference, same H) to tolerance.
func warmParityEngine(t *testing.T, g *Graph, seeds []int) *Engine {
	t.Helper()
	// The 2k-node test graphs saturate a push frontier long before a
	// 1e-10 tolerance bites, so give the subsystem a generous edge budget:
	// these tests verify parity and isolation, not push economics.
	return warmEngine(t, g, seeds, 256)
}

// warmEngine is warmParityEngine at the given ResidualEdgeBudget (0 = the
// default, which every what-if and patch on the 2k fixtures floods).
func warmEngine(t *testing.T, g *Graph, seeds []int, budget float64) *Engine {
	t.Helper()
	inc, err := NewEngine(g, seeds, 3, EngineOptions{
		ResidualTol: 1e-10, ResidualEdgeBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the engine pays its one full solve here, so subsequent patches
	// ride the residual state.
	if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	return inc
}

// beliefsOf pulls the full belief table (scores per class) via TopK.
func beliefsOf(t *testing.T, e *Engine) map[int][]float64 {
	t.Helper()
	rows, _ := whatIfBeliefs(t, e, nil)
	return rows
}

func maxBeliefDiff(a, b map[int][]float64) float64 {
	worst := 0.0
	for node, row := range a {
		for j, v := range row {
			if d := math.Abs(v - b[node][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestEngineIncrementalPatchParity is the engine-level randomized parity
// property: a random sequence of label patches applied incrementally must
// leave the engine's beliefs within 1e-6 of a converged full propagation
// on the same final seed state.
func TestEngineIncrementalPatchParity(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 16000, 0.05)
	inc := warmParityEngine(t, g, seeds)

	// Deterministic patch sequence, mirrored on the test's own seed model.
	model := append([]int(nil), seeds...)
	for round := 0; round < 10; round++ {
		set := map[int]int{}
		var remove []int
		for i := 0; i < 3; i++ {
			node := (round*911 + i*337) % g.N
			if (round+i)%5 == 0 {
				remove = append(remove, node)
				model[node] = Unlabeled
			} else {
				set[node] = (node + round) % 3
				model[node] = set[node]
			}
		}
		if err := inc.UpdateLabels(set, remove); err != nil {
			t.Fatal(err)
		}
	}

	if d := maxBeliefDiff(beliefsOf(t, inc), denseReference(t, g, model, inc.Estimate().H)); d > 1e-6 {
		t.Errorf("incremental beliefs differ from converged full propagation by %g", d)
	}
	st := inc.Stats()
	if st.ResidualPatches != 10 {
		t.Errorf("residual patches = %d, want 10", st.ResidualPatches)
	}
	if st.ResidualPushes == 0 {
		t.Error("no residual pushes recorded")
	}
	if st.Propagations != 1 {
		t.Errorf("incremental engine ran %d propagations, want 1 (the initial solve)", st.Propagations)
	}
	if st.LabelUpdates != 10 {
		t.Errorf("label updates = %d, want 10", st.LabelUpdates)
	}
}

// TestEngineIncrementalOverlayParity compares what-if sessions against a
// converged full propagation of the overlaid seeds, under a 256× heap-tier
// budget and under the default one. The budget only bounds the heap pushes:
// on this dense fixture the frontier saturates long before either, the
// promoted session's active rows come to own over half the stored entries
// and it runs whole-matrix rounds, so both report FellBack — the decision
// "a whole-matrix round ran", not a failure. Either way the what-if reports
// its work and leaves the engine exactly as it found it.
func TestEngineIncrementalOverlayParity(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 16000, 0.05)
	unlabeled, labeled := -1, -1
	for i, c := range seeds {
		if c == Unlabeled && unlabeled < 0 {
			unlabeled = i
		}
		if c != Unlabeled && labeled < 0 {
			labeled = i
		}
	}
	// A new seed, a flipped one and a cleared (or absent) one.
	extra := map[int]int{
		unlabeled:             2,
		labeled:               (seeds[labeled] + 1) % 3,
		(unlabeled + 1) % g.N: Unlabeled,
	}
	for _, tc := range []struct {
		name   string
		budget float64
		flood  bool
	}{
		{"within budget", 256, true},
		{"flooding", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := warmEngine(t, g, seeds, tc.budget)
			beliefsBefore, seedsBefore, statsBefore := beliefsOf(t, inc), inc.Seeds(), inc.Stats()

			incRows, incMeta := whatIfBeliefs(t, inc, extra)
			if !incMeta.Residual {
				t.Error("what-if did not use the residual path")
			}
			if incMeta.FellBack != tc.flood {
				t.Errorf("FellBack = %v, want %v (meta %+v)", incMeta.FellBack, tc.flood, incMeta)
			}
			// At this graph size and tolerance the frontier may legitimately
			// reach every node (locality on large/partitioned graphs is
			// covered by the residual package's own tests); here we only
			// require the session to have done and reported its work on
			// private rows rather than mutated the base.
			if incMeta.PushedNodes == 0 || incMeta.TouchedEdges == 0 || incMeta.ClonedRows == 0 {
				t.Errorf("what-if reported no work: %+v", incMeta)
			}
			fullRows := denseReference(t, g, withExtraSeeds(seeds, extra), inc.Estimate().H)
			if d := maxBeliefDiff(incRows, fullRows); d > 1e-6 {
				t.Errorf("what-if beliefs differ from full what-if propagation by %g", d)
			}

			// The what-if must not have leaked into the engine, and was
			// never a full propagation.
			st := inc.Stats()
			if st.Propagations != statsBefore.Propagations {
				t.Errorf("what-if ran %d full propagations", st.Propagations-statsBefore.Propagations)
			}
			if tc.flood && st.ResidualFallbacks != statsBefore.ResidualFallbacks+1 {
				t.Errorf("flood counted %d fallbacks, want 1", st.ResidualFallbacks-statsBefore.ResidualFallbacks)
			}
			if st.ResidualPushes == statsBefore.ResidualPushes {
				t.Error("what-if pushes not counted in ResidualPushes")
			}
			for node, c := range inc.Seeds() {
				if c != seedsBefore[node] {
					t.Fatalf("what-if persisted a seed at node %d", node)
				}
			}
			if d := maxBeliefDiff(beliefsOf(t, inc), beliefsBefore); d != 0 {
				t.Errorf("what-if moved the engine's beliefs by %g", d)
			}
		})
	}
}

// TestEngineWhatIfBesidePatchOnSameNode: a what-if that overrides node X's
// seed has one right answer whatever X's own seed is, so it must give that
// answer while label patches on X are in flight — including between a
// patch's seed install and its row swap, when the engine's seed vector is
// one patch ahead of the beliefs the what-if session reads.
func TestEngineWhatIfBesidePatchOnSameNode(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 8000, 0.1)
	inc := warmEngine(t, g, seeds, 0)
	const x = 7
	extra := map[int]int{x: 2}
	want := denseReference(t, g, withExtraSeeds(seeds, extra), inc.Estimate().H)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			if err := inc.UpdateLabels(map[int]int{x: i % 2}, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for racing := true; racing; {
		select {
		case <-done:
			racing = false // one last what-if on the quiescent engine
		default:
		}
		got, _ := whatIfBeliefs(t, inc, extra)
		if d := maxBeliefDiff(got, want); d > 1e-6 {
			t.Fatalf("what-if beside a patch on its own node is off by %g", d)
		}
	}
}

// TestEngineIncrementalDirectPath: after a patch, a small node-list query
// is served from live residual rows without re-propagating.
func TestEngineIncrementalDirectPath(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 16000, 0.05)
	// Generous budget: the dense 2k fixture floods the default one, which
	// would (correctly) drop the residual state instead of exercising the
	// direct path this test is about.
	eng, err := NewEngine(g, seeds, 3, EngineOptions{ResidualEdgeBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err) // initial solve
	}
	if err := eng.UpdateLabels(map[int]int{1: 2}, nil); err != nil {
		t.Fatal(err)
	}
	meta, err := eng.ClassifyEachMeta(Query{Nodes: []int{1, 2, 3}, TopK: 2}, func(NodeResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Residual {
		t.Error("post-patch small query did not use the residual direct path")
	}
	if st := eng.Stats(); st.Propagations != 1 {
		t.Errorf("direct path ran %d propagations, want 1", st.Propagations)
	}
	// A full-graph query copies every live row out — still no propagation.
	if _, err := eng.Classify(Query{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Propagations != 1 {
		t.Errorf("full-graph read after patch ran %d propagations, want 1 (copy only)", st.Propagations)
	}
}

// TestEngineIncrementalConcurrent hammers an incremental engine with
// parallel plain queries, what-ifs (point ones and full-graph ones that
// flood the default budget and sweep on private clones), patches and
// re-estimations. Run with -race: this is the session-isolation-under-
// concurrency test at the engine level.
func TestEngineIncrementalConcurrent(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 8000, 0.1)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	const readers, writers, perGoro = 8, 2, 25
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers+2)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				q := Query{Nodes: []int{(r*perGoro + i) % g.N}, TopK: 3}
				if i%5 == 0 {
					q.ExtraSeeds = map[int]int{(r + i) % g.N: i % 3}
				}
				if _, err := eng.Classify(q); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				node := (w*perGoro + i) % g.N
				if err := eng.UpdateLabels(map[int]int{node: i % 3}, nil); err != nil {
					errc <- err
					return
				}
				if err := eng.UpdateLabels(nil, []int{node}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		flooded := 0
		for i := 0; i < perGoro; i++ {
			meta, err := eng.ClassifyEachMeta(Query{TopK: 1, ExtraSeeds: map[int]int{(i * 31) % g.N: i % 3}},
				func(NodeResult) error { return nil })
			if err != nil {
				errc <- err
				return
			}
			if !meta.Residual {
				errc <- fmt.Errorf("what-if %d was not served by a residual session: %+v", i, meta)
				return
			}
			if meta.FellBack {
				flooded++
			}
		}
		if flooded == 0 {
			errc <- fmt.Errorf("none of %d full-graph what-ifs flooded the default budget", perGoro)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := eng.Reestimate(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestEngineIncrementalPatchFallback: a patch whose frontier exceeds the
// edge budget must not run propagation-scale work under the engine lock —
// the patch session finishes with dense sweeps on its private cloned view
// (fell_back) and the swap preserves the residual state, so no query ever
// pays a re-solve and beliefs still land right.
func TestEngineIncrementalPatchFallback(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 16000, 0.05)
	// Tight budget: any real patch floods it on this dense fixture.
	inc, err := NewEngine(g, seeds, 3, EngineOptions{
		ResidualTol: 1e-10, ResidualEdgeBudget: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err) // initial solve
	}
	node := -1
	for i, c := range seeds {
		if c == Unlabeled {
			node = i
			break
		}
	}
	meta, err := inc.UpdateLabelsMeta(map[int]int{node: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Residual || !meta.FellBack {
		t.Fatalf("tight-budget patch meta = %+v, want residual fell-back", meta)
	}
	if st := inc.Stats(); st.ResidualFallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.ResidualFallbacks)
	}
	// The sweeps ran on the patch's cloned view and the swap kept the
	// residual state: the next query is a row read, not a re-solve.
	res, err := inc.Classify(Query{Nodes: []int{node}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Label != 1 {
		t.Errorf("post-fallback label %d, want 1", res[0].Label)
	}
	if st := inc.Stats(); st.Propagations != 1 {
		t.Errorf("propagations = %d, want 1 (the fallback swept on the patch clone, no re-solve)", st.Propagations)
	}
}

// TestEngineIncrementalValidation covers the request error paths of the
// residual query routes (option ranges: TestEngineOptionsValidation).
func TestEngineIncrementalValidation(t *testing.T) {
	g, seeds, _ := engineFixture(t, 100, 500, 0.5)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{ExtraSeeds: map[int]int{g.N: 0}}); err == nil {
		t.Error("out-of-range extra seed accepted on residual overlay")
	}
	if _, err := eng.Classify(Query{ExtraSeeds: map[int]int{0: 7}}); err == nil {
		t.Error("out-of-range extra class accepted on residual overlay")
	}
	if _, err := eng.Classify(Query{Nodes: []int{-1}}); err == nil {
		t.Error("negative query node accepted on residual direct path")
	}
}

// TestNewEngineWithH: a preset compatibility matrix skips estimation
// entirely and classifies identically to an engine that estimated then had
// the same H installed.
func TestNewEngineWithH(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 8000, 0.1)
	ref, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := ref.Estimate().H
	preset, err := NewEngineWithH(g, seeds, 3, h, "dcer (persisted)")
	if err != nil {
		t.Fatal(err)
	}
	if st := preset.Stats(); st.Estimations != 0 {
		t.Errorf("preset-H engine ran %d estimations, want 0", st.Estimations)
	}
	if m := preset.Estimate().Method; m != "dcer (persisted)" {
		t.Errorf("preset method = %q", m)
	}
	a, err := ref.Classify(Query{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := preset.Classify(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Label != b[i].Label {
			t.Fatalf("node %d: preset-H label %d != reference %d", a[i].Node, b[i].Label, a[i].Label)
		}
	}
	if _, err := NewEngineWithH(g, seeds, 3, nil, "x"); err == nil {
		t.Error("nil H accepted")
	}
	bad := NewMatrix([][]float64{{1, 0}, {0, 1}})
	if _, err := NewEngineWithH(g, seeds, 3, bad, "x"); err == nil {
		t.Error("wrong-shape H accepted")
	}
}

// TestResidualPatchQuerySpeedup is the acceptance benchmark: on a synthetic
// 200k-node graph, a single-node label patch followed by a query must do
// ≥10× less edge work through the residual subsystem than a full dense
// re-propagation (propagation.LinBP at fullIters), without falling back,
// with matching beliefs. The gate is the deterministic work ratio — edges
// touched vs. edges a full propagation scans; the wall-clock ratio is
// logged as context only, since at this size
// it sits near 10× and a shared runner moves it either way. Skipped in
// -short; the full suite runs it.
func TestResidualPatchQuerySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-node benchmark; run without -short")
	}
	// Average degree 4: a unit single-node perturbation decays below the
	// tolerance after ~8 hops, well before its frontier can cover 200k
	// nodes — the locality regime the subsystem is built for. (On denser
	// graphs the frontier saturates and the engine's budget fallback makes
	// the patch a dense re-solve; that regime is exercised elsewhere.)
	const n, m = 200_000, 400_000
	g, truth, err := Generate(GenerateConfig{N: n, M: m, K: 3, H: SkewedH(3, 8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SampleSeeds(truth, 3, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	// fullIters puts the dense path within the 1e-6 agreement budget of
	// the fixed point the residual engine maintains (0.5^30 ≈ 1e-9).
	const fullIters = 30
	inc, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := inc.Estimate().H
	// Warm: the engine pays its one full solve here.
	if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}

	node := -1
	for i, c := range seeds {
		if c == Unlabeled {
			node = i
			break
		}
	}
	probe := []int{node, (node + 1) % n, (node + 17) % n}

	// Best-of-3 for each path, alternating classes so every patch is a
	// real change; both end on class 2.
	incDur, incMeta := time.Duration(math.MaxInt64), PatchMeta{}
	fullDur := time.Duration(math.MaxInt64)
	var full *dense.Matrix
	patched := append([]int(nil), seeds...)
	for class := 0; class < 3; class++ {
		start := time.Now()
		meta, err := inc.UpdateLabelsMeta(map[int]int{node: class}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Classify(Query{Nodes: probe, TopK: 3}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < incDur {
			incDur, incMeta = d, meta
		}

		patched[node] = class
		x, err := labels.Matrix(patched, 3)
		if err != nil {
			t.Fatal(err)
		}
		start = time.Now()
		full, err = propagation.LinBP(g.Adj, x, h, propagation.LinBPOptions{S: 0.5, Iterations: fullIters, Center: true})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < fullDur {
			fullDur = d
		}
	}

	if !incMeta.Residual {
		t.Fatal("patch did not go through the residual subsystem")
	}
	if incMeta.FellBack {
		t.Errorf("single-node patch fell back to dense sweeps (touched %d edges)", incMeta.TouchedEdges)
	}
	// Deterministic work bound: the full path scans 2m stored edges per
	// iteration; the residual path must do ≥10× less edge work.
	fullWork := int64(fullIters) * int64(g.Adj.NNZ())
	if int64(incMeta.TouchedEdges)*10 > fullWork {
		t.Errorf("residual patch touched %d edges; full path scans %d (want ≥10× less)",
			incMeta.TouchedEdges, fullWork)
	}
	t.Logf("patch+query: residual %v (pushed %d nodes, %d edges) vs full %v — %.1f× speedup",
		incDur, incMeta.PushedNodes, incMeta.TouchedEdges, fullDur,
		float64(fullDur)/float64(incDur))

	// Belief parity on the patched state: both paths saw the same final
	// patch (class 2), same H.
	ai, err := inc.Classify(Query{Nodes: probe, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ai {
		for _, cs := range r.Top {
			if d := math.Abs(cs.Score - full.At(r.Node, cs.Class)); d > 1e-6 {
				t.Errorf("node %d: residual and full beliefs differ by %g", r.Node, d)
			}
		}
	}
}

// TestEngineReplayIsBitIdentical: one request sequence gives one set of
// beliefs, on any host. Fresh engines replay the same label patches (six
// nodes each, every seed delta of norm 1), edge batches (four upserts of
// unit and weight-2 edges plus four removals of earlier upserts, with one
// synchronous compaction midway) and what-ifs (three extra seeds each)
// twice at GOMAXPROCS 1, then at 2 and 4, and once more at 1 with two
// collections before every op — they empty the session pool, so each
// session runs on freshly allocated scratch instead of recycled buffers.
// Each batch's push and edge counts join the replay: they pin every
// tracked round's next list, whose order the scatter round's branch-free
// re-queue must keep.
// Beside each what-if a label-only one (top_k 0, eight nodes, a flooding
// overlay of forty seeds) stops on its label certificate; its labels and
// push work, which pin the round it stopped at, join the replay. Every
// what-if answer and every final belief must agree bit for bit with
// the first run. Seed deltas queued in map order entered the push heap in
// a different order on every run, and a parallel tracked round's survivor
// order followed the worker count; both moved beliefs within Tol.
func TestEngineReplayIsBitIdentical(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 8000, 0.05)
	certified := 0
	replay := func(collect bool) []uint64 {
		e := warmEngine(t, g, seeds, 0)
		var bits []uint64
		var added [][2]int // upserted edges, oldest first: each batch removes four
		gc := func() {
			if collect {
				runtime.GC()
				runtime.GC()
			}
		}
		for round := 0; round < 12; round++ {
			gc()
			set := map[int]int{}
			for i := 0; i < 6; i++ {
				node := (round*977 + i*131) % g.N
				set[node] = (node + round) % 3
			}
			if err := e.UpdateLabels(set, nil); err != nil {
				t.Fatal(err)
			}
			var muts []EdgeMutation
			for _, ed := range added[:min(4, len(added))] {
				muts = append(muts, EdgeMutation{U: ed[0], V: ed[1], Remove: true})
			}
			added = added[min(4, len(added)):]
			for i := 0; i < 4; i++ {
				u := (round*389 + i*613) % g.N
				v := (u + 1 + (round*571+i*97)%(g.N-1)) % g.N
				muts = append(muts, EdgeMutation{U: u, V: v, W: float64(1 + i%2)})
				added = append(added, [2]int{u, v})
			}
			gc()
			mm, err := e.MutateTopology(0, muts)
			if err != nil {
				t.Fatal(err)
			}
			if !mm.Residual {
				t.Fatalf("round %d: edge batch did not flush through the residual state", round)
			}
			bits = append(bits, uint64(mm.PushedNodes), uint64(mm.TouchedEdges))
			if round == 6 {
				gc()
				if _, err := e.CompactTopology(); err != nil {
					t.Fatal(err)
				}
			}
			if round%3 == 2 {
				extra := map[int]int{round: 0, round + 500: 1, round + 1000: 2}
				gc()
				rows, _ := whatIfBeliefs(t, e, extra)
				for node := 0; node < g.N; node++ {
					for _, v := range rows[node] {
						bits = append(bits, math.Float64bits(v))
					}
				}
				flood, nodes := map[int]int{}, make([]int, 8)
				for i := 0; i < 40; i++ {
					flood[(round*37+i*53)%g.N] = i % 3
				}
				for i := range nodes {
					nodes[i] = (round*311 + i*229) % g.N
				}
				gc()
				meta, err := e.ClassifyEachMeta(Query{Nodes: nodes, ExtraSeeds: flood}, func(r NodeResult) error {
					bits = append(bits, uint64(r.Label))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if meta.Certified {
					certified++
				}
				bits = append(bits, uint64(meta.PushedNodes), uint64(meta.TouchedEdges), uint64(meta.ClonedRows))
			}
		}
		e.mu.RLock()
		defer e.mu.RUnlock()
		for _, v := range e.res.Beliefs().Data {
			bits = append(bits, math.Float64bits(v))
		}
		return bits
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := replay(false)
	if certified == 0 {
		t.Fatal("no label-only what-if stopped on its certificate")
	}
	t.Logf("%d of 4 label-only what-ifs stopped on their certificate", certified)
	for _, arm := range []struct {
		procs   int
		collect bool
	}{{1, false}, {2, false}, {4, false}, {1, true}} {
		runtime.GOMAXPROCS(arm.procs)
		b := replay(arm.collect)
		if len(a) != len(b) {
			t.Fatalf("GOMAXPROCS %d, collect %v: replays read %d and %d values", arm.procs, arm.collect, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("GOMAXPROCS %d, collect %v: replay differs from GOMAXPROCS 1 at value %d: %v vs %v",
					arm.procs, arm.collect, i, math.Float64frombits(b[i]), math.Float64frombits(a[i]))
			}
		}
	}
}

// TestSessionPoolSharedConcurrently: what-ifs, label patches and an edge
// batch that adds nodes (growing the residual state, which replaces its
// session pool) run at once on one engine and share its pool. A writer
// replays a fixed sequence of label patches with the edge batch in the
// middle while four readers issue flooding what-ifs beside it; what-ifs
// never reach the base, so the final beliefs must equal, bit for bit, the
// same writes replayed alone with two collections before each — every
// session of that replay runs on fresh scratch. A buffer handed out
// unclean, or shared by two live sessions, shows as a differing bit (and,
// under -race, as a race).
func TestSessionPoolSharedConcurrently(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 8000, 0.05)
	n := g.N
	writes := func(e *Engine, before func()) {
		for round := 0; round < 8; round++ {
			set := map[int]int{}
			for i := 0; i < 4; i++ {
				node := (round*613 + i*257) % n
				set[node] = (node + round) % 3
			}
			before()
			if err := e.UpdateLabels(set, nil); err != nil {
				t.Error(err)
				return
			}
			if round == 3 {
				muts := []EdgeMutation{{U: n, V: 5, W: 1}, {U: n + 1, V: n, W: 1}, {U: n + 2, V: 700, W: 2},
					{U: 10, V: 1200, W: 1}, {U: 40, V: 41, W: 1}}
				before()
				if _, err := e.MutateTopology(3, muts); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	finalBits := func(e *Engine) []uint64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		bits := make([]uint64, 0, len(e.res.Beliefs().Data))
		for _, v := range e.res.Beliefs().Data {
			bits = append(bits, math.Float64bits(v))
		}
		return bits
	}

	ref := warmEngine(t, g, seeds, 0)
	writes(ref, func() { runtime.GC(); runtime.GC() })
	want := finalBits(ref)

	e := warmEngine(t, g, seeds, 0)
	done := make(chan struct{})
	var wg, started sync.WaitGroup
	var whatIfs atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		started.Add(1)
		go func(r int) {
			defer wg.Done()
			running := false
			defer func() {
				if !running {
					started.Done()
				}
			}()
			for i := 0; ; i++ {
				if i == 1 { // the writer starts once every reader has answered once
					running = true
					started.Done()
				}
				select {
				case <-done:
					return
				default:
				}
				extra := map[int]int{(r*389 + i*71) % n: i % 3, (r*131 + i*997) % n: (i + 1) % 3}
				res, err := e.Classify(Query{Nodes: []int{0, 1, n - 1}, TopK: 3, ExtraSeeds: extra})
				if err != nil {
					t.Error(err)
					return
				}
				for _, nr := range res {
					for _, cs := range nr.Top {
						if math.IsNaN(cs.Score) || math.IsInf(cs.Score, 0) {
							t.Errorf("what-if read a non-finite score %v at node %d", cs.Score, nr.Node)
							return
						}
					}
				}
				whatIfs.Add(1)
			}
		}(r)
	}
	started.Wait()
	before := whatIfs.Load()
	writes(e, func() {})
	during := whatIfs.Load() - before
	close(done)
	wg.Wait()
	t.Logf("%d what-ifs completed while the writes ran", during)
	got := finalBits(e)
	if len(got) != len(want) {
		t.Fatalf("final beliefs hold %d values, the replay alone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final belief %d is %v beside concurrent what-ifs, %v replayed alone",
				i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}

// TestInitSweepsOnBenchmarkShapes pins the cold solve's round count on the
// benchmark's three graph shapes (planted with SkewedH(k, 8), seed 1, the
// DCEr H the engine estimates): Init runs 19 / 21 / 26 whole-matrix rounds
// to its Tol·¼ target on U20k / P10k / P20k. A change to the round's
// arithmetic that moved any bit of the residual would show here first.
func TestInitSweepsOnBenchmarkShapes(t *testing.T) {
	for _, c := range []struct {
		name       string
		n, m, k    int
		powerLaw   bool
		f          float64
		wantSweeps int
	}{
		{"U20k", 20000, 100000, 3, false, 0.05, 19},
		{"P10k", 10000, 50000, 3, true, 0.01, 21},
		{"P20k", 20000, 100000, 5, true, 0.05, 26},
	} {
		g, truth, err := Generate(GenerateConfig{N: c.n, M: c.m, K: c.k, H: SkewedH(c.k, 8), PowerLaw: c.powerLaw, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		seeds, err := SampleSeeds(truth, c.k, c.f, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, seeds, c.k)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := residual.NewStateOn(e.topo, e.Estimate().H, e.residualOptions(), e.rhoW)
		if err != nil {
			t.Fatal(err)
		}
		x, err := labels.Matrix(seeds, c.k)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rs.Init(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sweeps != c.wantSweeps {
			t.Errorf("%s: Init ran %d sweeps, want %d", c.name, st.Sweeps, c.wantSweeps)
		}
	}
}

// TestLabelOnlyWhatIfStopsAtProof: a what-if that reads only labels (top_k
// 0, explicit nodes) ends its flush on the label certificate, with less
// push work and the labels of the same what-if drained to the tolerance.
// Asked with scores, or over every node, the same what-if still drains.
func TestLabelOnlyWhatIfStopsAtProof(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 8000, 0.05)
	e := warmEngine(t, g, seeds, 0)
	labelsOf := func(q Query) ([]int, QueryMeta) {
		var labs []int
		meta, err := e.ClassifyEachMeta(q, func(r NodeResult) error {
			labs = append(labs, r.Label)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return labs, meta
	}
	certified := 0
	for round := 0; round < 6; round++ {
		flood, nodes := map[int]int{}, make([]int, 16)
		for i := 0; i < 40; i++ {
			flood[(round*41+i*47)%g.N] = (i + round) % 3
		}
		for i := range nodes {
			nodes[i] = (round*131 + i*113) % g.N
		}
		got, meta := labelsOf(Query{Nodes: nodes, ExtraSeeds: flood})
		want, full := labelsOf(Query{Nodes: nodes, TopK: 3, ExtraSeeds: flood})
		all, whole := labelsOf(Query{ExtraSeeds: flood})
		if full.Certified || whole.Certified {
			t.Fatalf("round %d: a what-if that shows scores or every node stopped on a certificate", round)
		}
		for i, node := range nodes {
			if got[i] != want[i] || all[node] != want[i] {
				t.Errorf("round %d node %d: label-only %d, with scores %d, over all nodes %d", round, node, got[i], want[i], all[node])
			}
		}
		if meta.Certified {
			certified++
			if meta.PushedNodes >= full.PushedNodes {
				t.Errorf("round %d: certified stop pushed %d rows, the full drain %d", round, meta.PushedNodes, full.PushedNodes)
			}
		}
	}
	if certified == 0 {
		t.Fatal("no label-only what-if stopped on its certificate")
	}
}
