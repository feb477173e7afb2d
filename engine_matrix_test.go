package factorgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"factorgraph/internal/graph"
	"factorgraph/internal/labels"
	"factorgraph/internal/propagation"
)

// denseReference is the tests' cold reference: the one-shot dense
// propagation.LinBP over g with the given seeds and H, as belief rows by
// node id. 60 iterations at s = 0.5 put it ~1e-18 from the fixed
// point the Engine serves, far inside the 1e-6 agreement budget. It shares
// no code with the Engine's residual path — an independent reference, not
// a second Engine.
func denseReference(t *testing.T, g *Graph, seeds []int, h *Matrix) map[int][]float64 {
	t.Helper()
	x, err := labels.Matrix(seeds, h.Rows)
	if err != nil {
		t.Fatal(err)
	}
	f, err := propagation.LinBP(g.Adj, x, h, propagation.LinBPOptions{S: 0.5, Iterations: 60, Center: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int][]float64, g.N)
	for i := 0; i < g.N; i++ {
		out[i] = f.Row(i)
	}
	return out
}

// withExtraSeeds overlays a what-if's extra seeds on a copy of seeds.
func withExtraSeeds(seeds []int, extra map[int]int) []int {
	out := append([]int(nil), seeds...)
	for node, c := range extra {
		out[node] = c
	}
	return out
}

// whatIfBeliefs runs a full-graph query under the given extra seeds (nil =
// the live state) and returns its belief rows.
func whatIfBeliefs(t *testing.T, e *Engine, extra map[int]int) (map[int][]float64, QueryMeta) {
	t.Helper()
	rows := map[int][]float64{}
	meta, err := e.ClassifyEachMeta(Query{TopK: e.K(), ExtraSeeds: extra}, func(r NodeResult) error {
		row := make([]float64, e.K())
		for _, cs := range r.Top {
			row[cs.Class] = cs.Score
		}
		rows[r.Node] = row
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, meta
}

// TestEngineOptionMatrix: no option rejects another, and every combination
// serves the same beliefs. Each of the 4 engines must construct, then
// survive label patch → edge mutation (with a node addition) → forced
// compaction → what-if → ReleaseTransient → classify, with the what-if and
// the final beliefs within 1e-6 of the dense reference on the test's own
// model of the state.
func TestEngineOptionMatrix(t *testing.T) {
	g0, seeds0, _ := engineFixture(t, 600, 3000, 0.1)
	est, err := EstimateDCEr(g0, seeds0, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := est.H
	for _, async := range []bool{false, true} {
		for _, frac := range []float64{0, 0.05} {
			opts := EngineOptions{AsyncCompact: async, CompactFraction: frac}
			t.Run(fmt.Sprintf("async=%v/frac=%v", async, frac), func(t *testing.T) {
				g, seeds, _ := engineFixture(t, 600, 3000, 0.1)
				eng, err := NewEngineWithH(g, seeds, 3, h, "pinned", opts)
				if err != nil {
					t.Fatalf("options %+v rejected: %v", opts, err)
				}
				if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
					t.Fatal(err) // warm: the one full solve
				}
				rng := rand.New(rand.NewSource(41))
				model := append([]int(nil), seeds...)
				edges := edgeSetOf(g)
				n := g.N

				// Label patch: two sets, one removal of a labeled seed.
				labeled := -1
				for i, c := range model {
					if c != Unlabeled {
						labeled = i
						break
					}
				}
				set := map[int]int{17: 1, 301: 2}
				if err := eng.UpdateLabels(set, []int{labeled}); err != nil {
					t.Fatal(err)
				}
				for node, c := range set {
					model[node] = c
				}
				model[labeled] = Unlabeled

				// Edge mutation: one new node wired in, ~150 fresh edges
				// (past frac=0.05's trigger, short of the default's) and
				// 20 removals.
				muts := []EdgeMutation{{U: n, V: 5}}
				edges[[2]int32{5, int32(n)}] = true
				n++
				model = append(model, Unlabeled)
				for i := 0; i < 150; i++ {
					u, v := rng.Intn(n), rng.Intn(n)
					a, b := int32(u), int32(v)
					if a > b {
						a, b = b, a
					}
					if u == v || edges[[2]int32{a, b}] {
						continue
					}
					muts = append(muts, EdgeMutation{U: u, V: v})
					edges[[2]int32{a, b}] = true
				}
				for i := 0; i < 20; i++ {
					u := rng.Intn(g.N)
					cols, _ := g.Adj.Row(u)
					if len(cols) == 0 {
						continue
					}
					e := [2]int32{int32(u), cols[0]}
					if e[0] > e[1] {
						e[0], e[1] = e[1], e[0]
					}
					if !edges[e] {
						continue // already removed from the other endpoint
					}
					muts = append(muts, EdgeMutation{U: u, V: int(cols[0]), Remove: true})
					delete(edges, e)
				}
				if _, err := eng.MutateTopology(1, muts); err != nil {
					t.Fatal(err)
				}

				// Forced compaction, after draining any background build
				// the batch started.
				eng.WaitCompaction()
				if _, err := eng.CompactTopology(); err != nil {
					t.Fatal(err)
				}
				eng.WaitCompaction()
				if ts := eng.TopoStats(); ts.OverlayFraction != 0 || ts.Nodes != n || ts.Edges != len(edges) {
					t.Fatalf("after compaction: %+v, want clean overlay over (%d, %d)", ts, n, len(edges))
				}

				gf, err := graph.New(n, edgeList(edges), nil)
				if err != nil {
					t.Fatal(err)
				}
				extra := map[int]int{n - 1: 1, 17: Unlabeled}
				got, _ := whatIfBeliefs(t, eng, extra)
				if d := maxBeliefDiff(got, denseReference(t, gf, withExtraSeeds(model, extra), h)); d > 1e-6 {
					t.Errorf("what-if beliefs differ from the dense reference by %g", d)
				}

				eng.ReleaseTransient()
				if d := maxBeliefDiff(beliefsOf(t, eng), denseReference(t, gf, model, h)); d > 1e-6 {
					t.Errorf("beliefs after release differ from the dense reference by %g", d)
				}
				gotSeeds := eng.Seeds()
				for i, want := range model {
					if gotSeeds[i] != want {
						t.Fatalf("Seeds()[%d] = %d, want %d", i, gotSeeds[i], want)
					}
				}
			})
		}
	}
}

// TestEngineOptionsValidation: every numeric option is range-checked on its
// own, and NaN/±Inf — which pass any plain `<`/`>=` test — are rejected
// instead of serving a non-contracting (or never-converging) update.
// (S out of range and unknown estimators: TestEngineValidation.)
func TestEngineOptionsValidation(t *testing.T) {
	g, seeds, _ := engineFixture(t, 100, 500, 0.5)
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]EngineOptions{
		"S NaN":                   {S: nan},
		"S +Inf":                  {S: inf},
		"S -Inf":                  {S: -inf},
		"ResidualTol NaN":         {ResidualTol: nan},
		"ResidualTol +Inf":        {ResidualTol: inf},
		"ResidualTol -Inf":        {ResidualTol: -inf},
		"ResidualTol negative":    {ResidualTol: -1},
		"ResidualEdgeBudget NaN":  {ResidualEdgeBudget: nan},
		"ResidualEdgeBudget +Inf": {ResidualEdgeBudget: inf},
		"ResidualEdgeBudget -Inf": {ResidualEdgeBudget: -inf},
		"ResidualEdgeBudget < 0":  {ResidualEdgeBudget: -1},
		"CompactFraction NaN":     {CompactFraction: nan},
		"CompactFraction +Inf":    {CompactFraction: inf},
		"CompactFraction -Inf":    {CompactFraction: -inf},
		"CompactFraction ≥ 1":     {CompactFraction: 1.5},
		"CompactFraction < 0":     {CompactFraction: -0.1},
	}
	for name, o := range bad {
		if _, err := NewEngine(g, seeds, 3, o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// No option needs another to be set.
	for name, o := range map[string]EngineOptions{
		"ResidualTol":        {ResidualTol: 1e-6},
		"ResidualEdgeBudget": {ResidualEdgeBudget: 8},
		"CompactFraction":    {CompactFraction: 0.5},
		"AsyncCompact":       {AsyncCompact: true},
	} {
		if _, err := NewEngine(g, seeds, 3, o); err != nil {
			t.Errorf("%s alone rejected: %v", name, err)
		}
	}
}

// TestEngineSetHValidation: SetH rejects a matrix of the wrong shape or with
// a non-finite entry (a NaN H yields a NaN ε and NaN beliefs served as
// answers) and leaves the serving H in place; a finite k×k matrix installs.
func TestEngineSetHValidation(t *testing.T) {
	g, seeds, _ := engineFixture(t, 100, 500, 0.5)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Estimate().H.Clone()
	with := func(i int, v float64) *Matrix {
		h := SkewedH(3, 8)
		h.Data[i] = v
		return h
	}
	for name, h := range map[string]*Matrix{
		"2×2":         SkewedH(2, 8),
		"NaN":         with(4, math.NaN()),
		"+Inf":        with(0, math.Inf(1)),
		"-Inf":        with(8, math.Inf(-1)),
		"NaN off-dia": with(1, math.NaN()),
	} {
		if err := eng.SetH(h, "test"); err == nil {
			t.Errorf("%s H accepted", name)
		}
	}
	for i, v := range eng.Estimate().H.Data {
		if v != before.Data[i] {
			t.Fatalf("a rejected SetH changed the serving H: %v vs %v", eng.Estimate().H.Data, before.Data)
		}
	}
	if err := eng.SetH(SkewedH(3, 8), "test"); err != nil {
		t.Errorf("finite H rejected: %v", err)
	}
	res, err := eng.Classify(Query{Nodes: []int{0}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range res[0].Top {
		if math.IsNaN(sc.Score) {
			t.Fatalf("NaN belief served after SetH: %+v", res[0])
		}
	}
}
