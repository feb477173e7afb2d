package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"factorgraph"
)

// testSpec is a small synthetic graph that builds in milliseconds.
func testSpec(seed uint64) Spec {
	return Spec{Synthetic: &SyntheticSpec{N: 200, M: 1000, F: 0.1, Seed: seed}}
}

// testEngineBytes is the footprint estimate for testSpec engines.
func testEngineBytes() int64 {
	return factorgraph.EstimateEngineBytes(200, 1000, 3, false)
}

// countBuilds wraps the registry's builder with an atomic build counter.
func countBuilds(r *Registry) *atomic.Int64 {
	var n atomic.Int64
	orig := r.builder
	r.builder = func(s Spec) (*factorgraph.Engine, error) {
		n.Add(1)
		return orig(s)
	}
	return &n
}

func TestRegisterValidation(t *testing.T) {
	r := New(Options{})
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"", testSpec(1)},
		{"bad name", testSpec(1)},
		{"a/b", testSpec(1)},
		{"ok", Spec{}},                                // no source
		{"ok", Spec{Synthetic: &SyntheticSpec{}}},     // n=m=0
		{"ok", Spec{Files: &FileSpec{Edges: "only"}}}, // missing labels
		{"ok", Spec{Synthetic: &SyntheticSpec{N: 10, M: 20}, K: 1}},
		{"ok", Spec{Synthetic: &SyntheticSpec{N: 10, M: 20},
			Options: factorgraph.EngineOptions{Estimator: "bogus"}}},
		{"ok", Spec{Inline: &InlineSpec{Edges: []byte("not\tvalid\tat\tall\tx")}}},
		{"ok", Spec{Synthetic: &SyntheticSpec{N: 10, M: 20}, Files: &FileSpec{Edges: "e", Labels: "l"}}},
	} {
		if _, err := r.Register(tc.name, tc.spec); err == nil {
			t.Errorf("Register(%q, %+v) accepted an invalid registration", tc.name, tc.spec)
		}
	}

	if _, err := r.Register("ok", testSpec(1)); err != nil {
		t.Fatalf("valid Register failed: %v", err)
	}
	if _, err := r.Register("ok", testSpec(2)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Register: err=%v, want ErrExists", err)
	}
	if _, _, err := r.Acquire("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Acquire unknown: err=%v, want ErrNotFound", err)
	}
	if err := r.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete unknown: err=%v, want ErrNotFound", err)
	}
}

// TestAcquireSingleflight is the registry's concurrency acceptance test:
// many concurrent first requests for the same cold graph must trigger
// exactly one engine build, and everyone must get that one engine. Run
// with -race.
func TestAcquireSingleflight(t *testing.T) {
	r := New(Options{})
	builds := countBuilds(r)
	if _, err := r.Register("g", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	const goros = 16
	engines := make([]*factorgraph.Engine, goros)
	var wg sync.WaitGroup
	for i := 0; i < goros; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, release, err := r.Acquire("g")
			if err != nil {
				t.Error(err)
				return
			}
			defer release()
			// Exercise the engine while pinned.
			if _, err := eng.Classify(factorgraph.Query{Nodes: []int{i}}); err != nil {
				t.Error(err)
			}
			engines[i] = eng
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("%d concurrent acquires ran %d builds, want 1", goros, got)
	}
	for i := 1; i < goros; i++ {
		if engines[i] != engines[0] {
			t.Fatalf("goroutine %d got a different engine instance", i)
		}
	}
	info, err := r.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Builds != 1 || info.Hits != int64(goros-1) {
		t.Errorf("info = builds %d hits %d, want builds 1 hits %d", info.Builds, info.Hits, goros-1)
	}
}

// TestEvictionPinnedSurvives covers the LRU under a budget that admits
// only one engine: pinned engines survive over-budget pressure, cold ones
// are evicted, and an evicted graph is transparently rebuilt on the next
// acquisition.
func TestEvictionPinnedSurvives(t *testing.T) {
	// Budget below a shed engine's footprint, so the tier-1 partial
	// release never satisfies it and the full-eviction ladder runs.
	r := New(Options{MemoryBudget: testEngineBytes() / 4})
	builds := countBuilds(r)
	for _, name := range []string{"a", "b"} {
		if _, err := r.Register(name, testSpec(1)); err != nil {
			t.Fatal(err)
		}
	}

	engA, releaseA, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	// Build b while a is pinned: both resident, over budget.
	_, releaseB, err := r.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	// On b's release the pinned a must survive even though it is the
	// LRU-older entry; b, the only evictable engine, goes instead.
	releaseB()
	if info, _ := r.Info("a"); info.State != "built" {
		t.Fatalf("pinned graph a was evicted (state %q)", info.State)
	}
	if info, _ := r.Info("b"); info.State != "cold" || info.Evictions != 1 {
		t.Fatalf("b state %q evictions %d, want cold/1", info.State, info.Evictions)
	}
	// a is still fully usable while pinned over budget.
	if _, err := engA.Classify(factorgraph.Query{Nodes: []int{0}}); err != nil {
		t.Fatalf("pinned engine query failed: %v", err)
	}
	releaseA()
	if info, _ := r.Info("a"); info.State != "built" {
		t.Fatalf("a evicted while within budget (state %q)", info.State)
	}

	// Rebuilding b evicts the now-cold a during install.
	_, releaseB2, err := r.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	releaseB2()
	if info, _ := r.Info("a"); info.State != "cold" || info.Evictions != 1 {
		t.Fatalf("a state %q evictions %d after b's rebuild, want cold/1", info.State, info.Evictions)
	}

	// Transparent rebuild of the evicted a on next access.
	engA2, releaseA2, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engA2.Classify(factorgraph.Query{Nodes: []int{1}}); err != nil {
		t.Fatalf("rebuilt engine query failed: %v", err)
	}
	releaseA2()
	if info, _ := r.Info("a"); info.Builds != 2 {
		t.Errorf("a rebuilt %d times, want 2", info.Builds)
	}
	if info, _ := r.Info("b"); info.State != "cold" || info.Evictions != 2 {
		t.Errorf("b state %q evictions %d after a's rebuild, want cold/2", info.State, info.Evictions)
	}
	if got := builds.Load(); got != 4 {
		t.Errorf("total builds %d, want 4 (a, b, b-again, a-again)", got)
	}
	st := r.Stats()
	if st.Evictions != 3 || st.Builds != 4 {
		t.Errorf("stats = %+v, want 3 evictions, 4 builds", st)
	}
}

// TestEvictionUnderLoad churns two graphs under a one-engine budget from
// many goroutines; every acquisition must succeed (rebuilding as needed)
// and no pinned engine may ever be closed mid-request. Run with -race.
func TestEvictionUnderLoad(t *testing.T) {
	r := New(Options{MemoryBudget: testEngineBytes() * 3 / 2})
	for _, name := range []string{"a", "b"} {
		if _, err := r.Register(name, testSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	const goros = 8
	var wg sync.WaitGroup
	for i := 0; i < goros; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "a"
			if i%2 == 1 {
				name = "b"
			}
			for j := 0; j < 10; j++ {
				eng, release, err := r.Acquire(name)
				if err != nil {
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				if _, err := eng.Classify(factorgraph.Query{Nodes: []int{j}}); err != nil {
					t.Errorf("classify on %s: %v", name, err)
				}
				release()
			}
		}(i)
	}
	wg.Wait()
	st := r.Stats()
	if st.Builds < 2 {
		t.Errorf("expected at least one build per graph, got %d", st.Builds)
	}
}

func TestBuildFailurePropagation(t *testing.T) {
	r := New(Options{})
	var builds atomic.Int64
	r.builder = func(s Spec) (*factorgraph.Engine, error) {
		builds.Add(1)
		return nil, fmt.Errorf("boom")
	}
	if _, err := r.Register("g", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	const goros = 8
	var wg sync.WaitGroup
	errs := make([]error, goros)
	for i := 0; i < goros; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.Acquire("g")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: failed build reported no error", i)
		}
	}
	// Failures must not brick the entry: a later acquire retries the build.
	before := builds.Load()
	if _, _, err := r.Acquire("g"); err == nil {
		t.Fatal("expected build failure")
	}
	if builds.Load() != before+1 {
		t.Errorf("post-failure acquire did not retry the build")
	}
	if info, _ := r.Info("g"); info.Builds != 0 {
		t.Errorf("failed builds counted as successes: %d", info.Builds)
	}
}

func TestDeleteWithInFlightRequests(t *testing.T) {
	r := New(Options{})
	if _, err := r.Register("g", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	eng, release, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("g"); err != nil {
		t.Fatal(err)
	}
	// The in-flight request keeps a usable engine until it releases.
	if _, err := eng.Classify(factorgraph.Query{Nodes: []int{0}}); err != nil {
		t.Fatalf("in-flight query after delete: %v", err)
	}
	release()
	// The last release closes the engine.
	if _, err := eng.Classify(factorgraph.Query{Nodes: []int{0}}); !errors.Is(err, factorgraph.ErrEngineClosed) {
		t.Errorf("query after final release: err=%v, want ErrEngineClosed", err)
	}
	if _, _, err := r.Acquire("g"); !errors.Is(err, ErrNotFound) {
		t.Errorf("acquire after delete: err=%v, want ErrNotFound", err)
	}
}

func TestRegisterEngineNotEvictable(t *testing.T) {
	eng := buildTestEngine(t)
	// A budget far below the engine footprint must still not evict a
	// pre-built (non-rebuildable) engine.
	r := New(Options{MemoryBudget: 1})
	if err := r.RegisterEngine("pinned", eng); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("spec", testSpec(2)); err != nil {
		t.Fatal(err)
	}
	_, release, err := r.Acquire("spec")
	if err != nil {
		t.Fatal(err)
	}
	release() // spec graph is evictable and over budget ⇒ evicted
	if info, _ := r.Info("pinned"); info.State != "built" {
		t.Errorf("non-rebuildable engine evicted (state %q)", info.State)
	}
	if info, _ := r.Info("spec"); info.State != "cold" {
		t.Errorf("evictable engine survived a 1-byte budget (state %q)", info.State)
	}
	got, release2, ok := r.AcquireIfBuilt("pinned")
	if !ok || got != eng {
		t.Fatalf("AcquireIfBuilt(pinned) = %v, %v", got, ok)
	}
	release2()
	if _, _, ok := r.AcquireIfBuilt("spec"); ok {
		t.Error("AcquireIfBuilt returned a cold graph")
	}
}

// TestMutatedEngineNotEvicted: once a graph's labels (or H) are patched,
// a spec rebuild would silently roll the mutations back, so the registry
// must pin mutated engines against eviction.
func TestMutatedEngineNotEvicted(t *testing.T) {
	// Budget below a shed footprint: pressure escalates past the partial
	// release to full eviction, which must still skip the mutated engine.
	r := New(Options{MemoryBudget: testEngineBytes() / 4})
	for _, name := range []string{"patched", "other"} {
		if _, err := r.Register(name, testSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	eng, release, err := r.Acquire("patched")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateLabels(map[int]int{0: 1}, nil); err != nil {
		t.Fatal(err)
	}
	release()
	// Building "other" pushes resident over budget; the cold LRU victim
	// would be "patched", but it is mutated and must survive.
	_, release2, err := r.Acquire("other")
	if err != nil {
		t.Fatal(err)
	}
	release2()
	info, _ := r.Info("patched")
	if info.State != "built" || !info.Mutated || info.Evictions != 0 {
		t.Errorf("mutated graph: %+v, want built/mutated/0 evictions", info)
	}
	// The mutated engine WAS partially released (tier 1 loses nothing) but
	// never fully evicted.
	if !info.Shed || info.PartialReleases == 0 {
		t.Errorf("mutated graph not partially released under pressure: %+v", info)
	}
	// "other" (unmutated, refs 0) is the one evicted to chase the budget.
	if info, _ := r.Info("other"); info.State != "cold" {
		t.Errorf("unmutated graph state %q, want cold", info.State)
	}
	// The patch is still visible — nothing was rolled back.
	if eng2, release3, err := r.Acquire("patched"); err != nil {
		t.Fatal(err)
	} else {
		if eng2.Seeds()[0] != 1 {
			t.Error("label patch lost")
		}
		release3()
	}
}

// TestInlineSpecBytesCounted: retained upload payloads are resident
// memory; the budget must see them, and DELETE must release them.
func TestInlineSpecBytesCounted(t *testing.T) {
	r := New(Options{})
	edges := []byte("0\t1\n1\t2\n2\t0\n")
	labels := []byte("0\t0\n1\t1\n")
	if _, err := r.Register("up", Spec{K: 2, Inline: &InlineSpec{Edges: edges, Labels: labels}}); err != nil {
		t.Fatal(err)
	}
	want := int64(len(edges) + len(labels))
	if st := r.Stats(); st.ResidentBytes != want {
		t.Errorf("resident %d after inline register, want %d (payload bytes)", st.ResidentBytes, want)
	}
	if info, _ := r.Info("up"); info.SpecBytes != want {
		t.Errorf("spec bytes %d, want %d", info.SpecBytes, want)
	}
	if err := r.Delete("up"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.ResidentBytes != 0 {
		t.Errorf("resident %d after delete, want 0", st.ResidentBytes)
	}
}

func buildTestEngine(t *testing.T) *factorgraph.Engine {
	t.Helper()
	eng, err := buildEngine(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
