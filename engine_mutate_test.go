package factorgraph

import (
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"factorgraph/internal/graph"
)

// edgeSetOf extracts the undirected edge set of a graph's CSR.
func edgeSetOf(g *Graph) map[[2]int32]bool {
	out := make(map[[2]int32]bool)
	for u := 0; u < g.N; u++ {
		cols, _ := g.Adj.Row(u)
		for _, v := range cols {
			a, b := int32(u), v
			if a > b {
				a, b = b, a
			}
			out[[2]int32{a, b}] = true
		}
	}
	return out
}

func edgeList(set map[[2]int32]bool) [][2]int32 {
	out := make([][2]int32, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	return out
}

// TestEngineMutateParity is the tentpole acceptance property: a graph
// built by a random sequence of edge mutations (adds, removals, upserts,
// node additions) against a live incremental engine must converge to the
// same beliefs (≤1e-6) as a cold build of the final edge set with the same
// H — including across compaction swaps (one forced mid-sequence, one at
// the end, plus any the overlay fraction triggers).
func TestEngineMutateParity(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1500, 6000, 0.05)
	inc, err := NewEngine(g, seeds, 3, EngineOptions{
		ResidualTol: 1e-10, ResidualEdgeBudget: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err) // warm: the one full solve
	}

	rng := rand.New(rand.NewSource(11))
	edges := edgeSetOf(g)
	n := g.N
	var totalSet, totalRemoved, totalAddedNodes int
	for round := 0; round < 12; round++ {
		var muts []EdgeMutation
		addNodes := 0
		if round%4 == 3 {
			// Grow the graph and wire the new node in (node additions).
			addNodes = 1
			u := rng.Intn(n)
			muts = append(muts, EdgeMutation{U: n, V: u})
			edges[[2]int32{int32(u), int32(n)}] = true
			n++
			totalSet++
			totalAddedNodes++
		}
		for i := 0; i < 6; i++ {
			if rng.Intn(3) == 0 && len(edges) > 100 {
				// Remove a random present edge.
				list := edgeList(edges)
				e := list[rng.Intn(len(list))]
				muts = append(muts, EdgeMutation{U: int(e[0]), V: int(e[1]), Remove: true})
				delete(edges, e)
				totalRemoved++
			} else {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue // self-loops are rejected by validation
				}
				a, b := int32(u), int32(v)
				if a > b {
					a, b = b, a
				}
				if edges[[2]int32{a, b}] {
					continue // upserts of existing weight-1 edges are no-op deltas
				}
				muts = append(muts, EdgeMutation{U: u, V: v})
				edges[[2]int32{a, b}] = true
				totalSet++
			}
		}
		meta, err := inc.MutateTopology(addNodes, muts)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Residual {
			t.Fatalf("round %d: mutation batch bypassed the residual subsystem (%+v)", round, meta)
		}
		if round == 5 {
			// Mid-sequence forced compaction: parity must survive the swap.
			cm, err := inc.CompactTopology()
			if err != nil {
				t.Fatal(err)
			}
			if !cm.Compacted {
				t.Fatal("mid-sequence compaction was a no-op on a dirty overlay")
			}
		}
	}
	if _, err := inc.CompactTopology(); err != nil {
		t.Fatal(err)
	}

	liveN, liveM := inc.Dims()
	if liveN != n || liveM != len(edges) {
		t.Fatalf("live dims (%d, %d), want (%d, %d)", liveN, liveM, n, len(edges))
	}

	// Cold build of the final edge set, same H: the reference fixed point.
	gf, err := graph.New(n, edgeList(edges), nil)
	if err != nil {
		t.Fatal(err)
	}
	seedsFinal := append([]int(nil), seeds...)
	for len(seedsFinal) < n {
		seedsFinal = append(seedsFinal, Unlabeled)
	}
	if d := maxBeliefDiff(beliefsOf(t, inc), denseReference(t, gf, seedsFinal, inc.Estimate().H)); d > 1e-6 {
		t.Errorf("mutated beliefs differ from cold build of the final edge set by %g", d)
	}

	st := inc.Stats()
	if got := int(st.EdgeMutations); got != totalSet+totalRemoved {
		t.Errorf("EdgeMutations = %d, want %d", got, totalSet+totalRemoved)
	}
	if st.TopoCompactions < 2 {
		t.Errorf("TopoCompactions = %d, want ≥ 2 (forced mid-sequence + final)", st.TopoCompactions)
	}
	if st.TopoRescales == 0 {
		t.Error("no ε rescale recorded: compactions should have moved ρ(W)")
	}
	ts := inc.TopoStats()
	if ts.OverlayFraction != 0 {
		t.Errorf("overlay fraction %v after compaction, want 0", ts.OverlayFraction)
	}
	t.Logf("applied %d sets, %d removals, %d node adds; stats %+v", totalSet, totalRemoved, totalAddedNodes, ts)
}

// TestEngineMutateDeletionsOnly pins the deletion path specifically: ρ(W)
// shrinks, the pinned ε stays contracting, and post-compaction beliefs
// match a cold build.
func TestEngineMutateDeletionsOnly(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 5000, 0.1)
	inc, err := NewEngine(g, seeds, 3, EngineOptions{
		ResidualTol: 1e-10, ResidualEdgeBudget: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	edges := edgeSetOf(g)
	rng := rand.New(rand.NewSource(5))
	list := edgeList(edges)
	var muts []EdgeMutation
	for i := 0; i < 40; i++ {
		e := list[rng.Intn(len(list))]
		if !edges[e] {
			continue
		}
		muts = append(muts, EdgeMutation{U: int(e[0]), V: int(e[1]), Remove: true})
		delete(edges, e)
	}
	meta, err := inc.MutateTopology(0, muts)
	if err != nil {
		t.Fatal(err)
	}
	if meta.RemovedEdges != len(muts) || !meta.Residual {
		t.Fatalf("deletion batch meta %+v", meta)
	}
	if _, err := inc.CompactTopology(); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.New(g.N, edgeList(edges), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxBeliefDiff(beliefsOf(t, inc), denseReference(t, gf, seeds, inc.Estimate().H)); d > 1e-6 {
		t.Errorf("post-deletion beliefs differ from cold build by %g", d)
	}
}

// TestEngineMutateNoOpsStayClean: a batch that only replays a removal of
// an absent edge and re-upserts an edge at its weight changes nothing, so
// it must leave the overlay clean — a later explicit compaction of an
// otherwise clean engine is a no-op, not a CSR rebuild and a ρ(W) rerun.
func TestEngineMutateNoOpsStayClean(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 5000, 0.1)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	edges := edgeSetOf(g)
	present := edgeList(edges)[0]
	absent := [2]int{0, 1}
	for edges[[2]int32{int32(absent[0]), int32(absent[1])}] {
		absent[1]++
	}
	meta, err := eng.MutateTopology(0, []EdgeMutation{
		{U: absent[0], V: absent[1], Remove: true},
		{U: int(present[0]), V: int(present[1]), W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.MissingRemoves != 1 || meta.SetEdges != 1 || meta.OverlayFraction != 0 || meta.Compacted {
		t.Fatalf("no-op batch meta %+v, want one missing remove, one set edge and a clean overlay", meta)
	}
	before := eng.TopoStats().Compactions
	cm, err := eng.CompactTopology()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Compacted || eng.TopoStats().Compactions != before {
		t.Fatalf("explicit compaction after a no-op batch rebuilt the CSR: %+v", cm)
	}
}

// TestEngineMutateColdAndLabels: mutations on a cold engine (no residual
// state yet) simply re-target the first solve; label patches and edge
// mutations interleave safely.
func TestEngineMutateColdAndLabels(t *testing.T) {
	g, seeds, _ := engineFixture(t, 800, 4000, 0.1)
	inc, err := NewEngine(g, seeds, 3, EngineOptions{ResidualEdgeBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Cold mutation: no pushes, next query solves against the mutated graph.
	meta, err := inc.MutateTopology(1, []EdgeMutation{{U: g.N, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Residual {
		t.Fatal("cold mutation claimed a residual flush")
	}
	if meta.Nodes != g.N+1 {
		t.Fatalf("nodes = %d, want %d", meta.Nodes, g.N+1)
	}
	if st := inc.Stats(); st.Propagations != 0 {
		t.Fatalf("cold mutation triggered %d propagations", st.Propagations)
	}
	// The first query pays exactly one solve, over the mutated topology.
	res, err := inc.Classify(Query{Nodes: []int{g.N}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Node != g.N {
		t.Fatalf("new node unqueryable: %+v", res)
	}
	if st := inc.Stats(); st.Propagations != 1 {
		t.Fatalf("propagations = %d, want 1", st.Propagations)
	}
	// Label the new node, then mutate again: both o(Δ) paths, no re-solve.
	if err := inc.UpdateLabels(map[int]int{g.N: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if meta, err = inc.MutateTopology(0, []EdgeMutation{{U: g.N, V: 5}}); err != nil {
		t.Fatal(err)
	}
	if !meta.Residual {
		t.Fatal("warm mutation did not flush through the residual subsystem")
	}
	if st := inc.Stats(); st.Propagations != 1 {
		t.Fatalf("o(Δ) paths re-solved: propagations = %d", st.Propagations)
	}
}

// TestEngineMutateValidation covers the error paths.
func TestEngineMutateValidation(t *testing.T) {
	g, seeds, _ := engineFixture(t, 100, 500, 0.5)
	inc, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if meta, err := inc.MutateTopology(0, []EdgeMutation{{U: 0, V: g.N}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	} else if meta.Nodes != g.N || meta.Edges == 0 {
		// Error metas still carry the live dimensions (the HTTP layer
		// reports them); a zero Nodes means a return path skipped the
		// deferred fillTopoDims stamp.
		t.Errorf("error meta not stamped with live dims: %+v", meta)
	}
	if _, err := inc.MutateTopology(0, []EdgeMutation{{U: 7, V: 7}}); err == nil {
		t.Error("self-loop upsert accepted")
	}
	if _, err := inc.MutateTopology(0, []EdgeMutation{{U: 7, V: 7, Remove: true}}); err == nil {
		t.Error("self-loop removal accepted")
	}
	// A self-loop anywhere in the batch rejects the whole batch atomically.
	before := inc.Stats().EdgeMutations
	if _, err := inc.MutateTopology(0, []EdgeMutation{{U: 0, V: 2}, {U: 5, V: 5}}); err == nil {
		t.Error("batch containing a self-loop accepted")
	}
	if after := inc.Stats().EdgeMutations; after != before {
		t.Errorf("rejected batch still applied mutations (%d → %d)", before, after)
	}
	if _, err := inc.MutateTopology(-1, nil); err == nil {
		t.Error("negative node addition accepted")
	}
	if _, err := inc.MutateTopology(0, []EdgeMutation{{U: 0, V: 1, W: -2}}); err == nil {
		t.Error("negative weight accepted")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), 10 * graph.MaxWeight} {
		if _, err := inc.MutateTopology(0, []EdgeMutation{{U: 0, V: 1, W: w}}); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
	// Removing an absent edge is a replayable no-op, not an error.
	meta, err := inc.MutateTopology(0, []EdgeMutation{{U: 0, V: 1, Remove: true}, {U: 0, V: 1, Remove: true}})
	if err != nil {
		t.Fatal(err)
	}
	if meta.MissingRemoves == 0 {
		t.Error("absent removal not reported as missing")
	}
	inc.Close()
	if _, err := inc.MutateTopology(0, []EdgeMutation{{U: 0, V: 1}}); err != ErrEngineClosed {
		t.Errorf("closed-engine mutation error = %v", err)
	}
}

// TestEngineMutateConcurrent hammers an incremental engine with parallel
// classify/what-if readers, label patches and topology mutations — and a
// Graph() reader, which races the epoch swap of every compaction. Run with
// -race: this is the mutation subsystem's race-cleanliness test. Every
// result must carry the node id it was asked for, and after quiescence
// Seeds() and the beliefs must match the test's own model of the final
// state (≤1e-6 of a cold build of the final edge set).
func TestEngineMutateConcurrent(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 8000, 0.1)
	eng, err := NewEngine(g, seeds, 3, EngineOptions{CompactFraction: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	const readers, perGoro = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, readers+3)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				q := Query{Nodes: []int{(r*perGoro + i) % g.N}, TopK: 3}
				if i%5 == 0 {
					q.ExtraSeeds = map[int]int{(r + i) % g.N: i % 3}
				}
				res, err := eng.Classify(q)
				if err != nil {
					errc <- err
					return
				}
				if len(res) != 1 || res[0].Node != q.Nodes[0] {
					t.Errorf("query for node %d answered %+v", q.Nodes[0], res)
					return
				}
				for _, cs := range res[0].Top {
					if math.IsNaN(cs.Score) || math.IsInf(cs.Score, 0) {
						t.Errorf("node %d: non-finite score %v", res[0].Node, cs.Score)
						return
					}
				}
			}
		}(r)
	}
	// Topology mutator: adds + removes, crossing the tiny compaction
	// threshold repeatedly so swaps run under live read traffic, plus a
	// forced compaction every tenth batch.
	edges := edgeSetOf(g)
	mutated := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(mutated)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 40; i++ {
			u, v := rng.Intn(g.N), rng.Intn(g.N)
			if u == v {
				v = (v + 1) % g.N
			}
			key := [2]int32{int32(u), int32(v)}
			if u > v {
				key = [2]int32{int32(v), int32(u)}
			}
			if _, err := eng.MutateTopology(0, []EdgeMutation{{U: u, V: v}}); err != nil {
				errc <- err
				return
			}
			edges[key] = true
			if i%4 == 0 {
				if _, err := eng.MutateTopology(0, []EdgeMutation{{U: u, V: v, Remove: true}}); err != nil {
					errc <- err
					return
				}
				delete(edges, key)
			}
			if i%10 == 9 {
				if _, err := eng.CompactTopology(); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	// Label mutator.
	model := append([]int(nil), seeds...)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perGoro; i++ {
			node := (i * 13) % g.N
			if err := eng.UpdateLabels(map[int]int{node: i % 3}, nil); err != nil {
				errc <- err
				return
			}
			model[node] = i % 3
		}
	}()
	// Footprint/stat readers (registry release path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perGoro; i++ {
			eng.MemoryFootprint()
			eng.TopoStats()
		}
	}()
	// Graph() and nothing else, for as long as the mutator compacts: any
	// other engine call would order this goroutine after the epoch swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-mutated:
				return
			default:
				if eng.Graph().N != g.N {
					t.Error("Graph() returned a graph of the wrong size")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := eng.Stats(); st.EdgeMutations == 0 {
		t.Error("no edge mutations recorded")
	}
	if t.Failed() {
		return
	}
	if _, err := eng.CompactTopology(); err != nil {
		t.Fatal(err)
	}
	got := eng.Seeds()
	for i, want := range model {
		if got[i] != want {
			t.Fatalf("Seeds()[%d] = %d, want %d", i, got[i], want)
		}
	}
	gf, err := graph.New(g.N, edgeList(edges), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxBeliefDiff(beliefsOf(t, eng), denseReference(t, gf, model, eng.Estimate().H)); d > 1e-6 {
		t.Errorf("post-churn beliefs differ from a cold build of the final state by %g", d)
	}
}

// TestMutateQuerySpeedup is the streaming-mutation acceptance benchmark:
// on a 200k-node graph, a single-edge mutation + query through the delta
// overlay and residual repropagation must be ≥10× faster than a
// rebuild + query of the mutated edge set, with a deterministic work-ratio
// backstop (edges touched vs. edges a rebuild's solve scans) so a noisy
// runner cannot produce a false failure alone. Skipped in -short.
func TestMutateQuerySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-node benchmark; run without -short")
	}
	const n, m = 200_000, 400_000
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
	h := inc.Estimate().H
	if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err) // warm: the one full solve
	}
	probe := []int{1, 17, 33}

	// Mutate path: one edge upsert + query against the live engine.
	mutateOnce := func(u, v int, remove bool) (time.Duration, MutateMeta) {
		start := time.Now()
		meta, err := inc.MutateTopology(0, []EdgeMutation{{U: u, V: v, Remove: remove}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Classify(Query{Nodes: probe, TopK: 3}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start), meta
	}
	// Rebuild path: cold engine over the mutated edge set (H persisted, so
	// the rebuild pays one propagation — the registry's CHEAPEST rebuild)
	// + the same query.
	edges := edgeSetOf(g)
	rebuildOnce := func(u, v int) time.Duration {
		a, b := int32(u), int32(v)
		if a > b {
			a, b = b, a
		}
		edges[[2]int32{a, b}] = true
		start := time.Now()
		gf, err := graph.New(n, edgeList(edges), nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewEngineWithH(gf, seeds, 3, h, "persisted")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Classify(Query{Nodes: probe, TopK: 3}); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		cold.Close()
		return d
	}

	var mutDur time.Duration = math.MaxInt64
	var mutMeta MutateMeta
	for i := 0; i < 3; i++ {
		d, meta := mutateOnce(100+i, 2000+7*i, false)
		if !meta.Residual {
			t.Fatal("mutation bypassed the residual subsystem")
		}
		if meta.Compacted {
			t.Fatal("single-edge mutation triggered compaction")
		}
		if d < mutDur {
			mutDur, mutMeta = d, meta
		}
	}
	var rebDur time.Duration = math.MaxInt64
	for i := 0; i < 3; i++ {
		if d := rebuildOnce(300+i, 4000+11*i); d < rebDur {
			rebDur = d
		}
	}

	// Deterministic work backstop: the rebuild's solve sweeps all 2m stored
	// edges per iteration until the residual tolerance; bound it below by
	// 10 sweeps (residual.Init needs ~27 at s=0.5, tol 1e-8). The mutate
	// path must touch ≥10× fewer edges than even that undercount.
	rebuildWork := int64(10) * int64(g.Adj.NNZ())
	if int64(mutMeta.TouchedEdges)*10 > rebuildWork {
		t.Errorf("mutation touched %d edges; rebuild scans ≥%d (want ≥10× less)",
			mutMeta.TouchedEdges, rebuildWork)
	}
	speedup := float64(rebDur) / float64(mutDur)
	t.Logf("mutate+query %v (pushed %d, %d edges) vs rebuild+query %v — %.1f× speedup",
		mutDur, mutMeta.PushedNodes, mutMeta.TouchedEdges, rebDur, speedup)
	if rebDur < 10*mutDur {
		if os.Getenv("CI") != "" {
			t.Logf("mutate path %v not ≥10× faster than rebuild %v (not failing: CI runner timing)", mutDur, rebDur)
		} else {
			t.Errorf("mutate path %v not ≥10× faster than rebuild %v", mutDur, rebDur)
		}
	}
}
