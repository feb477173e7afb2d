package factorgraph

import (
	"errors"
	"sync"
	"testing"
)

// engineFixture plants a heterophilous graph with sparse stratified seeds
// and returns (graph, seeds, truth).
func engineFixture(t *testing.T, n, m int, f float64) (*Graph, []int, []int) {
	t.Helper()
	h := SkewedH(3, 8)
	g, truth, err := Generate(GenerateConfig{N: n, M: m, K: 3, H: h, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SampleSeeds(truth, 3, f, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g, seeds, truth
}

// TestEnginePreprocessesOnce is the serving acceptance test: 1000
// sequential classification queries against a cached 100k-edge planted
// graph must run estimation exactly once (at engine construction) and
// propagation exactly once (first query), never re-running CSR
// construction or the sketch pass per query.
func TestEnginePreprocessesOnce(t *testing.T) {
	g, seeds, _ := engineFixture(t, 20000, 100000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Estimations != 1 {
		t.Fatalf("after construction: %d estimations, want 1", st.Estimations)
	}
	for i := 0; i < 1000; i++ {
		node := (i * 37) % g.N
		res, err := eng.Classify(Query{Nodes: []int{node}, TopK: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Node != node {
			t.Fatalf("query %d: bad result %+v", i, res)
		}
		if len(res[0].Top) != 2 {
			t.Fatalf("query %d: want top-2 scores, got %d", i, len(res[0].Top))
		}
		if res[0].Top[0].Score < res[0].Top[1].Score {
			t.Fatalf("query %d: top-k not sorted: %+v", i, res[0].Top)
		}
		if res[0].Top[0].Class != res[0].Label {
			t.Fatalf("query %d: top-1 class %d != label %d", i, res[0].Top[0].Class, res[0].Label)
		}
	}
	st := eng.Stats()
	if st.Estimations != 1 {
		t.Errorf("after 1000 queries: %d estimations, want 1", st.Estimations)
	}
	if st.Propagations != 1 {
		t.Errorf("after 1000 queries: %d propagations, want 1", st.Propagations)
	}
	if st.Queries != 1000 {
		t.Errorf("query counter = %d, want 1000", st.Queries)
	}
}

// TestEngineParityWithOneShot asserts the engine classifies identically to
// the one-shot facade pipeline (same estimator, same options) and beats the
// chance baseline on a planted graph.
func TestEngineParityWithOneShot(t *testing.T) {
	g, seeds, truth := engineFixture(t, 3000, 36000, 0.05)

	est, err := EstimateDCEr(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := Propagate(g, seeds, 3, est.H)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Classify(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != g.N {
		t.Fatalf("full classify returned %d results, want %d", len(res), g.N)
	}
	served := make([]int, g.N)
	for _, r := range res {
		served[r.Node] = r.Label
	}
	diff := 0
	for i := range served {
		if served[i] != oneShot[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("engine and one-shot pipeline disagree on %d/%d nodes", diff, g.N)
	}
	acc := Accuracy(served, truth, seeds)
	if acc < 0.5 {
		t.Errorf("engine accuracy %.3f not above chance 1/3", acc)
	}
}

// TestEngineIncrementalLabels checks that UpdateLabels changes predictions
// without re-estimating H, and that removing the update restores the
// original behavior.
func TestEngineIncrementalLabels(t *testing.T) {
	g, seeds, truth := engineFixture(t, 3000, 36000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Find an unlabeled node and pin it to a class.
	node := -1
	for i, c := range seeds {
		if c == Unlabeled {
			node = i
			break
		}
	}
	if node < 0 {
		t.Fatal("fixture has no unlabeled node")
	}
	want := (truth[node] + 1) % 3 // deliberately "wrong" class: must stick
	if err := eng.UpdateLabels(map[int]int{node: want}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Classify(Query{Nodes: []int{node}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Label != want {
		t.Errorf("after labeling node %d as %d, classify returned %d", node, want, res[0].Label)
	}
	st := eng.Stats()
	if st.Estimations != 1 {
		t.Errorf("incremental update triggered %d estimations, want 1", st.Estimations)
	}
	if st.LabelUpdates != 1 {
		t.Errorf("label update counter = %d, want 1", st.LabelUpdates)
	}
	// The update landed on a cold engine (seeds only): the post-update
	// query pays the one cold solve.
	if st.Propagations != 1 {
		t.Errorf("propagations = %d, want 1 (the cold solve)", st.Propagations)
	}

	// The incremental labeled count must track set/remove transitions.
	base := eng.LabeledCount()
	if err := eng.UpdateLabels(map[int]int{node: (want + 1) % 3}, nil); err != nil {
		t.Fatal(err) // relabel an already-labeled node: count unchanged
	}
	if got := eng.LabeledCount(); got != base {
		t.Errorf("relabel changed count %d → %d", base, got)
	}

	// Removing the seed must invalidate again and classify from scratch.
	if err := eng.UpdateLabels(nil, []int{node}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Seeds()[node]; got != Unlabeled {
		t.Errorf("seed %d not removed: %d", node, got)
	}
	if got := eng.LabeledCount(); got != base-1 {
		t.Errorf("remove: labeled count %d, want %d", got, base-1)
	}

	// Validation failures must leave state untouched.
	if err := eng.UpdateLabels(map[int]int{-1: 0}, nil); err == nil {
		t.Error("negative node accepted")
	}
	if err := eng.UpdateLabels(map[int]int{node: 9}, nil); err == nil {
		t.Error("out-of-range class accepted")
	}
	if got := eng.Seeds()[node]; got != Unlabeled {
		t.Errorf("failed update mutated seed %d to %d", node, got)
	}
}

// TestEngineExtraSeeds checks what-if queries: overlaid seeds affect only
// the query, not the engine state.
func TestEngineExtraSeeds(t *testing.T) {
	g, seeds, _ := engineFixture(t, 3000, 36000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	node := -1
	for i, c := range seeds {
		if c == Unlabeled {
			node = i
			break
		}
	}
	base, err := eng.Classify(Query{Nodes: []int{node}})
	if err != nil {
		t.Fatal(err)
	}
	target := (base[0].Label + 1) % 3
	whatIf, err := eng.Classify(Query{Nodes: []int{node}, ExtraSeeds: map[int]int{node: target}})
	if err != nil {
		t.Fatal(err)
	}
	if whatIf[0].Label != target {
		t.Errorf("what-if seed %d→%d, classify returned %d", node, target, whatIf[0].Label)
	}
	// Engine state untouched: same base answer, seed still unlabeled.
	again, err := eng.Classify(Query{Nodes: []int{node}})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Label != base[0].Label {
		t.Errorf("what-if query mutated engine state: %d → %d", base[0].Label, again[0].Label)
	}
	if eng.Seeds()[node] != Unlabeled {
		t.Error("what-if query persisted its seed")
	}

	// Invalid overlays are rejected.
	if _, err := eng.Classify(Query{ExtraSeeds: map[int]int{g.N: 0}}); err == nil {
		t.Error("out-of-range extra seed accepted")
	}
	if _, err := eng.Classify(Query{ExtraSeeds: map[int]int{0: 7}}); err == nil {
		t.Error("out-of-range extra class accepted")
	}
}

// TestEngineConcurrentQueriesAndUpdates is the race-detector stress test:
// parallel classification queries, what-if overlays, incremental label
// updates and re-estimations hammering one engine. Run with -race.
func TestEngineConcurrentQueriesAndUpdates(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 8000, 0.1)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers  = 8
		writers  = 2
		perGoro  = 25
		whatIfEv = 5
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				q := Query{Nodes: []int{(r*perGoro + i) % g.N}, TopK: 3}
				if i%whatIfEv == 0 {
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
	st := eng.Stats()
	if st.Queries != readers*perGoro {
		t.Errorf("queries = %d, want %d", st.Queries, readers*perGoro)
	}
	if st.LabelUpdates != 2*writers*perGoro {
		t.Errorf("label updates = %d, want %d", st.LabelUpdates, 2*writers*perGoro)
	}
}

// TestEngineValidation covers constructor error paths.
func TestEngineValidation(t *testing.T) {
	g, seeds, _ := engineFixture(t, 100, 500, 0.5)
	if _, err := NewEngine(g, seeds, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewEngine(g, seeds[:10], 3); err == nil {
		t.Error("short seed vector accepted")
	}
	if _, err := NewEngine(g, seeds, 3, EngineOptions{Estimator: "nope"}); err == nil {
		t.Error("unknown estimator accepted")
	}
	if _, err := NewEngine(g, seeds, 3, EngineOptions{S: -1}); err == nil {
		t.Error("negative convergence parameter accepted")
	}
	if _, err := NewEngine(g, seeds, 3, EngineOptions{S: 2}); err == nil {
		t.Error("non-contracting s >= 1 accepted")
	}
	for _, name := range []string{"lce", "holdout"} {
		if _, err := NewEngine(g, seeds, 3, EngineOptions{Estimator: name}); !errors.Is(err, ErrUnknownEstimator) {
			t.Errorf("engine estimator %q: err=%v, want ErrUnknownEstimator (the engine serves sketch estimators only)", name, err)
		}
	}
	if _, err := EstimateBy("mce", g, seeds, 3, EstimateOptions{Lambda: 2}); !errors.Is(err, ErrEstimateOptions) {
		t.Errorf("options on mce: err=%v, want ErrEstimateOptions", err)
	}
	if _, err := EstimateBy("lce", g, seeds, 3, EstimateOptions{Lambda: 2}); !errors.Is(err, ErrEstimateOptions) {
		t.Errorf("options on lce: err=%v, want ErrEstimateOptions", err)
	}
	if _, err := EstimateBy("DCEr", g, seeds, 3, EstimateOptions{}); err != nil {
		t.Errorf("mixed-case estimator name rejected: %v", err)
	}
	if _, err := NewEngine(g, seeds, 3, EngineOptions{}, EngineOptions{}); err == nil {
		t.Error("two option structs accepted")
	}
}
