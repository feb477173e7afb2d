package registry

import (
	"testing"

	"factorgraph"
)

// TestPartialReleaseTier: under a budget a shed engine fits but a full one
// does not, memory pressure must drop the transient working state (tier 1)
// instead of evicting — the engine stays resident, the next access rebuilds
// NOTHING but the solve (no parse, no CSR build, no estimation).
func TestPartialReleaseTier(t *testing.T) {
	// Between one shed footprint and one warm footprint, both read off a
	// probe engine built from the same spec.
	probe, err := buildEngine(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Classify(factorgraph.Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	warm := probe.MemoryFootprint()
	shed := probe.ReleaseTransient()
	probe.Close()
	if shed >= warm {
		t.Fatalf("shed footprint %d not below the warm one %d", shed, warm)
	}
	r := New(Options{MemoryBudget: (shed + warm) / 2})
	builds := countBuilds(r)
	if _, err := r.Register("g", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	eng, release, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(factorgraph.Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	propsBefore := eng.Stats().Propagations
	// The warm footprint, read off the engine: the registry's own figure is
	// still the cold one it measured at build.
	warmMem := eng.MemoryFootprint()
	release() // over budget → tier-1 partial release

	info, err := r.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "built" {
		t.Fatalf("partial release changed state to %q, want built", info.State)
	}
	if !info.Shed || info.PartialReleases != 1 {
		t.Fatalf("expected shed/1 partial release, got %+v", info)
	}
	if info.MemBytes >= warmMem {
		t.Fatalf("partial release did not shrink the footprint: %d → %d", warmMem, info.MemBytes)
	}
	if st := r.Stats(); st.PartialReleases != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 partial release, 0 evictions", st)
	}

	// Re-acquire: the SAME engine (no rebuild), shed cleared, and the next
	// query pays exactly one propagation — o(build), not o(parse+build).
	eng2, release2, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if eng2 != eng {
		t.Fatal("partial release replaced the engine instance")
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("re-acquire after partial release ran %d builds, want 1", got)
	}
	if _, err := eng2.Classify(factorgraph.Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	st := eng2.Stats()
	if st.Estimations != 1 {
		t.Errorf("post-shed query re-ran estimation (%d), want the cached H", st.Estimations)
	}
	if st.Propagations != propsBefore+1 {
		t.Errorf("post-shed query ran %d propagations, want %d (exactly one re-solve)", st.Propagations, propsBefore+1)
	}
	release2()
	if info, _ := r.Info("g"); info.Shed && info.PartialReleases < 2 {
		t.Errorf("shed flag not cleared by acquisition: %+v", info)
	}
}

// TestPartialReleaseKeepsMutations: a partially released
// engine keeps its delta overlay and label patches — shedding loses no
// acknowledged state, which is exactly why mutated engines qualify for
// tier 1 even though tier 2 must skip them.
func TestPartialReleaseKeepsMutations(t *testing.T) {
	r := New(Options{}) // no budget; shed explicitly via the engine API
	if _, err := r.Register("g", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	eng, release, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := eng.Classify(factorgraph.Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	n0, m0 := eng.Dims()
	if _, err := eng.MutateTopology(1, []factorgraph.EdgeMutation{{U: n0, V: 0}, {U: 1, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateLabels(map[int]int{2: 1}, nil); err != nil {
		t.Fatal(err)
	}
	eng.ReleaseTransient()

	// Everything acknowledged survives the shed.
	if n, m := eng.Dims(); n != n0+1 || m < m0+1 {
		t.Fatalf("dims after shed (%d, %d), want (%d, ≥%d)", n, m, n0+1, m0+1)
	}
	if eng.Seeds()[2] != 1 {
		t.Fatal("label patch lost by partial release")
	}
	// The re-solve serves the mutated topology: the added node answers.
	res, err := eng.Classify(factorgraph.Query{Nodes: []int{n0}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Node != n0 {
		t.Fatalf("added node unqueryable after shed: %+v", res)
	}
	if st := eng.Stats(); st.Estimations != 1 {
		t.Errorf("shed+resolve re-ran estimation: %d", st.Estimations)
	}
}
