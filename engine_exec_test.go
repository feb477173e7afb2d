package factorgraph

import (
	"runtime"
	"testing"
)

// whatIfFixture is a warm 2 000-node engine and an unlabeled node to put
// what-if seeds on.
func whatIfFixture(t *testing.T) (*Engine, []int, int) {
	t.Helper()
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
	return eng, seeds, node
}

// TestWhatIfRepeatIsBitIdentical: an identical what-if asked twice at one
// generation flushes twice to bit-identical labels and scores, with the same
// push and clone work.
func TestWhatIfRepeatIsBitIdentical(t *testing.T) {
	eng, _, node := whatIfFixture(t)
	q := Query{Nodes: []int{node, (node + 3) % 2000}, TopK: 3,
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
	if !m1.Residual || m1.PushedNodes == 0 || m1.ClonedRows == 0 {
		t.Fatalf("first what-if did no push work: %+v", m1)
	}
	second, m2 := collect()
	if m2 != m1 {
		t.Errorf("repeated what-if meta = %+v, want %+v", m2, m1)
	}
	for i := range first {
		if first[i].Label != second[i].Label {
			t.Fatalf("label differs at node %d: %d vs %d", first[i].Node, second[i].Label, first[i].Label)
		}
		for j := range first[i].Top {
			if first[i].Top[j] != second[i].Top[j] {
				t.Fatalf("scores differ at node %d: %v vs %v", first[i].Node, second[i].Top, first[i].Top)
			}
		}
	}
	if st := eng.Stats(); st.OverlayCacheHits != 0 {
		t.Errorf("OverlayCacheHits = %d, want 0", st.OverlayCacheHits)
	}
}

// TestWhatIfsRetainNoHeap: a what-if's session is dropped once it is read,
// so sixty-four distinct one-seed what-ifs leave the engine's GC'd heap
// where it was — nothing the registry's footprint budget cannot see.
func TestWhatIfsRetainNoHeap(t *testing.T) {
	eng, seeds, _ := whatIfFixture(t)
	var unlabeled []int
	for i, c := range seeds {
		if c == Unlabeled {
			unlabeled = append(unlabeled, i)
		}
	}
	whatIf := func(node int) {
		q := Query{Nodes: []int{node}, ExtraSeeds: map[int]int{node: 1}}
		if _, err := eng.ClassifyEachMeta(q, func(NodeResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	whatIf(unlabeled[0]) // warm: the cold solve and any lazily sized scratch
	before := heap()
	for _, node := range unlabeled[1:65] {
		whatIf(node)
	}
	after := heap()
	runtime.KeepAlive(eng)
	const limit = 2 << 20
	if after > before && after-before >= limit {
		t.Errorf("64 what-ifs grew HeapAlloc by %.1f MB, want < %.0f MB",
			float64(after-before)/(1<<20), float64(limit)/(1<<20))
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
