package factorgraph

import (
	"testing"
)

// TestEngineOverlayCache: an identical what-if repeated at the same label
// generation is served from the memoized frontier (no pushes), and any
// label patch invalidates it.
func TestEngineOverlayCache(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 16000, 0.05)
	eng, err := NewEngine(g, seeds, 3, EngineOptions{ResidualEdgeBudget: 256})
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
	q := Query{Nodes: []int{node, (node + 3) % g.N}, TopK: 3,
		ExtraSeeds: map[int]int{node: 2}}

	collect := func() ([]NodeResult, QueryMeta) {
		var out []NodeResult
		meta, err := eng.ClassifyEachMeta(q, func(r NodeResult) error {
			out = append(out, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, meta
	}

	first, m1 := collect()
	if !m1.Residual || m1.CacheHit {
		t.Fatalf("first what-if meta = %+v, want residual miss", m1)
	}
	if m1.PushedNodes == 0 || m1.ClonedRows == 0 {
		t.Fatalf("first what-if did no push work: %+v", m1)
	}
	second, m2 := collect()
	if !m2.CacheHit {
		t.Fatalf("repeated what-if meta = %+v, want cache hit", m2)
	}
	if m2.ClonedRows != m1.ClonedRows || m2.PushedNodes != m1.PushedNodes {
		t.Errorf("cache hit reports different work: %+v vs %+v", m2, m1)
	}
	for i := range first {
		if first[i].Label != second[i].Label {
			t.Fatalf("cached label differs at node %d: %d vs %d", first[i].Node, second[i].Label, first[i].Label)
		}
		for j := range first[i].Top {
			if first[i].Top[j] != second[i].Top[j] {
				t.Fatalf("cached scores differ at node %d", first[i].Node)
			}
		}
	}
	if st := eng.Stats(); st.OverlayCacheHits != 1 {
		t.Errorf("OverlayCacheHits = %d, want 1", st.OverlayCacheHits)
	}

	// A different extra-seed set is its own entry, not a hit.
	q2 := q
	q2.ExtraSeeds = map[int]int{node: 1}
	if meta, err := eng.ClassifyEachMeta(q2, func(NodeResult) error { return nil }); err != nil {
		t.Fatal(err)
	} else if meta.CacheHit {
		t.Error("different seed set hit the cache")
	}

	// A label patch bumps the generation: the cached frontier is stale.
	if err := eng.UpdateLabels(map[int]int{(node + 5) % g.N: 1}, nil); err != nil {
		t.Fatal(err)
	}
	_, m3 := collect()
	if m3.CacheHit {
		t.Error("what-if after a patch served a stale cached frontier")
	}
	if st := eng.Stats(); st.OverlayCacheHits != 1 {
		t.Errorf("OverlayCacheHits after invalidation = %d, want 1", st.OverlayCacheHits)
	}
	// And the refreshed entry hits again.
	if _, m4 := collect(); !m4.CacheHit {
		t.Error("refreshed what-if entry did not hit")
	}
}

// TestOverlayCacheKeyCanonical: map iteration order must not split
// identical seed sets across entries.
func TestOverlayCacheKeyCanonical(t *testing.T) {
	a := map[int]int{5: 1, 17: 2, 3: 0}
	for i := 0; i < 20; i++ {
		b := map[int]int{17: 2, 3: 0, 5: 1}
		if overlayCacheKey(a) != overlayCacheKey(b) {
			t.Fatal("identical seed sets produced different keys")
		}
	}
	if overlayCacheKey(map[int]int{5: 1}) == overlayCacheKey(map[int]int{5: 2}) {
		t.Fatal("different classes share a key")
	}
}

// TestOverlayCacheLRU: capacity bounds entries; eviction drops the oldest.
func TestOverlayCacheLRU(t *testing.T) {
	var c overlayCache
	for i := 0; i < overlayCacheCap+10; i++ {
		c.put(&overlayCacheEntry{key: overlayCacheKey(map[int]int{i: 1}), gen: 1,
			rows: map[int32][]float64{}})
	}
	if c.len() != overlayCacheCap {
		t.Fatalf("cache len = %d, want cap %d", c.len(), overlayCacheCap)
	}
	if c.get(overlayCacheKey(map[int]int{0: 1}), 1) != nil {
		t.Error("oldest entry survived eviction")
	}
	if c.get(overlayCacheKey(map[int]int{overlayCacheCap + 9: 1}), 1) == nil {
		t.Error("newest entry evicted")
	}
	// Oversized frontiers are not cached at all.
	big := make(map[int32][]float64, overlayCacheMaxRows+1)
	for i := int32(0); i <= overlayCacheMaxRows; i++ {
		big[i] = nil
	}
	c.put(&overlayCacheEntry{key: "big", gen: 1, rows: big})
	if c.get("big", 1) != nil {
		t.Error("oversized frontier was cached")
	}
}

// TestEngineIncrementalMemoryFootprint is the memory acceptance check: on
// a 200k-node graph an idle engine (warmed, empty frontier)
// must report at least 40% less than the static admission formula — the dense
// residual buffers are gone and the pooled states are not idle-resident.
func TestEngineIncrementalMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-node engine build; run without -short")
	}
	const n, m, k = 200_000, 400_000, 3
	g, truth, err := Generate(GenerateConfig{N: n, M: m, K: k, H: SkewedH(k, 8), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SampleSeeds(truth, k, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A preset H skips estimation: this test is about memory, not DCEr.
	h := SkewedH(k, 8)
	eng, err := NewEngineWithH(g, seeds, k, h, "gold")
	if err != nil {
		t.Fatal(err)
	}
	// Warm: one full solve seeds the residual state; the frontier is then
	// empty — the steady serving state.
	if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{}); err != nil {
		t.Fatal(err)
	}
	// The formula MemoryFootprint used before the tiered residual landed:
	// the static engine estimate plus five dense n×k residual buffers and
	// per-node bookkeeping.
	old := EstimateEngineBytes(n, m, k, false) + int64(n)*(5*8*int64(k)+9)
	got := eng.MemoryFootprint()
	t.Logf("idle incremental footprint: %d MiB (old formula %d MiB, %.0f%% drop)",
		got>>20, old>>20, 100*(1-float64(got)/float64(old)))
	if got > old*6/10 {
		t.Errorf("idle footprint %d > 60%% of the old estimate %d (want ≥40%% drop)", got, old)
	}
	// Sanity floor: the CSR matrix and the belief working set are real.
	if got < csrBytes(n, m, false) {
		t.Errorf("footprint %d below the CSR matrix alone", got)
	}
}
