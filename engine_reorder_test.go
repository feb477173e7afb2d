package factorgraph

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"factorgraph/internal/graph"
)

// TestEngineReorderColdParity: a reordered cold build must serve the exact
// same beliefs per EXTERNAL node id as the unordered dense propagation —
// the permutation is an internal layout decision, invisible on every
// surface.
func TestEngineReorderColdParity(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1500, 6000, 0.05)
	est, err := EstimateDCEr(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain := denseReference(t, g, seeds, est.H)
	for _, mode := range []string{"degree", "rcm"} {
		g2, seeds2, _ := engineFixture(t, 1500, 6000, 0.05)
		// A tolerance far below the 1e-9 bound, so the comparison sees the
		// ordering and not where the solve stopped.
		ord, err := NewEngineWithH(g2, seeds2, 3, est.H, "pinned",
			EngineOptions{ResidualTol: 1e-12, Reorder: mode})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxBeliefDiff(plain, beliefsOf(t, ord)); d > 1e-9 {
			t.Errorf("reorder=%q: cold-build beliefs differ from unordered by %g", mode, d)
		}
		// Seeds() must come back in external order, untouched by the
		// internal permutation.
		got := ord.Seeds()
		for i, want := range seeds {
			if got[i] != want {
				t.Fatalf("reorder=%q: Seeds()[%d] = %d, want %d", mode, i, got[i], want)
			}
		}
	}
}

// TestEngineReorderMutateParity extends the compaction parity property to
// locality reordering: an incremental engine that renumbers its rows at
// every compaction epoch must still converge to the same beliefs (≤1e-6)
// as an unordered cold build of the final edge set — with all mutations,
// label patches and queries expressed in external ids throughout.
func TestEngineReorderMutateParity(t *testing.T) {
	for _, mode := range []string{"degree", "rcm"} {
		t.Run(mode, func(t *testing.T) {
			g, seeds, _ := engineFixture(t, 1500, 6000, 0.05)
			inc, err := NewEngine(g, seeds, 3, EngineOptions{
				ResidualTol: 1e-10, ResidualEdgeBudget: 256,
				Reorder: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inc.Classify(Query{Nodes: []int{0}}); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(23))
			edges := edgeSetOf(g)
			n := g.N
			seedState := append([]int(nil), seeds...)
			for round := 0; round < 10; round++ {
				var muts []EdgeMutation
				addNodes := 0
				if round%4 == 3 {
					addNodes = 1
					u := rng.Intn(n)
					muts = append(muts, EdgeMutation{U: n, V: u})
					edges[[2]int32{int32(u), int32(n)}] = true
					n++
				}
				for i := 0; i < 6; i++ {
					if rng.Intn(3) == 0 && len(edges) > 100 {
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
				if _, err := inc.MutateTopology(addNodes, muts); err != nil {
					t.Fatal(err)
				}
				// Interleave external-id label patches with the topology
				// churn: each renumbering epoch must keep translating them.
				node := rng.Intn(n)
				c := rng.Intn(3)
				if err := inc.UpdateLabels(map[int]int{node: c}, nil); err != nil {
					t.Fatal(err)
				}
				for len(seedState) < n {
					seedState = append(seedState, Unlabeled)
				}
				seedState[node] = c
				if round == 4 {
					// Mid-sequence forced compaction: the first reordered
					// epoch swap. Parity must survive the renumbering.
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

			// Seeds() round-trips through the composed permutation.
			for len(seedState) < n {
				seedState = append(seedState, Unlabeled)
			}
			got := inc.Seeds()
			for i, want := range seedState {
				if got[i] != want {
					t.Fatalf("Seeds()[%d] = %d, want %d (external ids drifted)", i, got[i], want)
				}
			}

			// Cold build of the final edge set in the ORIGINAL (external)
			// numbering, same H: the reference fixed point.
			gf, err := graph.New(n, edgeList(edges), nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxBeliefDiff(beliefsOf(t, inc), denseReference(t, gf, seedState, inc.Estimate().H)); d > 1e-6 {
				t.Errorf("reorder=%q: mutated beliefs differ from cold build by %g", mode, d)
			}
			if st := inc.Stats(); st.TopoCompactions < 2 {
				t.Errorf("TopoCompactions = %d, want ≥ 2", st.TopoCompactions)
			}
		})
	}
}

// TestEngineReorderConcurrentExternalIDs is the -race acceptance property:
// classify, label patches, edge mutations and forced (reordering)
// compactions run concurrently, and every emitted result must carry the
// EXTERNAL node id it was asked for. After quiescence the engine must
// still match an unordered cold build of the final state.
func TestEngineReorderConcurrentExternalIDs(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1200, 5000, 0.05)
	eng, err := NewEngine(g, seeds, 3, EngineOptions{
		ResidualTol: 1e-10, ResidualEdgeBudget: 256,
		Reorder: "degree",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}

	n := g.N
	edges := edgeSetOf(g)
	seedState := append([]int(nil), seeds...)
	var wg sync.WaitGroup

	// Readers: every result must echo the requested external id with
	// finite scores, across every epoch swap.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				nodes := []int{(i*31 + r*17) % n, (i*53 + r*7) % n}
				res, err := eng.Classify(Query{Nodes: nodes, TopK: 3})
				if err != nil {
					t.Error(err)
					return
				}
				for j, nr := range res {
					if nr.Node != nodes[j] {
						t.Errorf("result %d echoes node %d, want %d", j, nr.Node, nodes[j])
						return
					}
					for _, cs := range nr.Top {
						if math.IsNaN(cs.Score) || math.IsInf(cs.Score, 0) {
							t.Errorf("node %d: non-finite score %v", nr.Node, cs.Score)
							return
						}
					}
				}
			}
		}(r)
	}

	// Patcher: deterministic external-id label patches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			node := (i*211 + 5) % n
			c := i % 3
			if err := eng.UpdateLabels(map[int]int{node: c}, nil); err != nil {
				t.Error(err)
				return
			}
			seedState[node] = c
		}
	}()

	// Mutator: deterministic external-id edge adds plus forced
	// compactions, each of which renumbers the internal rows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 30; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			a, b := int32(u), int32(v)
			if a > b {
				a, b = b, a
			}
			if u == v || edges[[2]int32{a, b}] {
				continue
			}
			if _, err := eng.MutateTopology(0, []EdgeMutation{{U: u, V: v}}); err != nil {
				t.Error(err)
				return
			}
			edges[[2]int32{a, b}] = true
			if i%10 == 9 {
				if _, err := eng.CompactTopology(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := eng.CompactTopology(); err != nil {
		t.Fatal(err)
	}

	got := eng.Seeds()
	for i, want := range seedState {
		if got[i] != want {
			t.Fatalf("Seeds()[%d] = %d, want %d (external ids drifted)", i, got[i], want)
		}
	}
	gf, err := graph.New(n, edgeList(edges), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxBeliefDiff(beliefsOf(t, eng), denseReference(t, gf, seedState, eng.Estimate().H)); d > 1e-6 {
		t.Errorf("post-churn beliefs differ from cold build by %g", d)
	}
}
