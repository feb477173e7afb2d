package residual

import (
	"math/rand"
	"sort"
	"testing"

	"factorgraph/internal/delta"
	"factorgraph/internal/dense"
	"factorgraph/internal/gen"
	"factorgraph/internal/sparse"
)

// plantedPowerLaw is the shape of the benchmark's P10k graph: a planted
// power-law graph with 1 % of its nodes seeded.
func plantedPowerLaw(t *testing.T, n, m, k int) (*sparse.CSR, *dense.Matrix) {
	t.Helper()
	res, err := gen.Generate(gen.Config{
		N: n, M: m, Alpha: gen.Balanced(k), H: testH(k, 0.5),
		Dist: gen.PowerLaw{Exponent: 0.3}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph.Adj, randX(n, k, 0.01, rand.New(rand.NewSource(7)))
}

// TestFlushPricesEveryRound pins the routing of a promoted drain in counts,
// not clocks, on a 10 k-node power-law graph. A 4-label patch floods: it
// must reach its whole-matrix rounds after traversing at most 2 × nnz edges
// node-at-a-time (burning the whole 4 × nnz push budget first is the
// failure this guards) and need at most 14 of them. A batch of 4 edge upserts + 4 removals does not flood: the median
// batch runs none.
func TestFlushPricesEveryRound(t *testing.T) {
	const n, m, k = 10000, 50000, 3
	w, x := plantedPowerLaw(t, n, m, k)
	h := testH(k, 0.5)
	rho := w.SpectralRadiusCached()
	s, err := NewStateOn(delta.New(w), h, Options{}, rho)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for patch := 0; patch < 10; patch++ {
		st := applyPatch(s, func(p *Patch) {
			for i := 0; i < 4; i++ {
				setSeed(p, x, rng.Intn(n), rng.Intn(k))
			}
		})
		if !st.FellBack || st.Sweeps == 0 || st.Sweeps > 14 {
			t.Errorf("patch %d: %d whole-matrix rounds (FellBack=%v), want 1..14", patch, st.Sweeps, st.FellBack)
		}
		if st.Edges > 2*w.NNZ() {
			t.Errorf("patch %d: heap + tracked rounds traversed %d edges > 2 × nnz = %d", patch, st.Edges, 2*w.NNZ())
		}
	}
	if d := maxAbsDiff(s.Beliefs(), fixedPoint(t, w, h, x)); d > 1e-6 {
		t.Errorf("beliefs differ from converged propagation by %g after the label patches", d)
	}

	// Edge batches over the delta overlay, the way the engine applies
	// them: publish the mutated epoch, seed the perturbation, flush.
	topo := delta.New(w)
	var added [][2]int
	sweeps := make([]int, 200)
	for batch := range sweeps {
		topo = topo.Clone()
		s.SetAdj(topo)
		p := s.BeginPatch()
		for i := 0; i < 4; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			p.AddEdgeDelta(u, v, 1-topo.SetEdge(u, v, 1))
			added = append(added, [2]int{u, v})
		}
		for i := 0; i < 4 && len(added) > 8; i++ { // the oldest edges earlier batches added
			e := added[0]
			added = added[1:]
			if old, ok := topo.RemoveEdge(e[0], e[1]); ok {
				p.AddEdgeDelta(e[0], e[1], -old)
			}
		}
		sweeps[batch] = p.Flush().Sweeps
		p.Apply()
	}
	sort.Ints(sweeps)
	if med := sweeps[len(sweeps)/2]; med != 0 {
		t.Errorf("median edge batch ran %d whole-matrix rounds, want 0 (max %d)", med, sweeps[len(sweeps)-1])
	}
	// A cold state over the final topology under the same pinned ρ(W).
	cold, err := NewStateOn(topo, h, Options{}, rho)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Init(x); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(s.Beliefs(), cold.Beliefs()); d > 1e-6 {
		t.Errorf("beliefs differ from a cold solve of the mutated graph by %g", d)
	}
}

// TestFloodingPatchesAreHistoryFree: every whole-matrix round recomputes the
// residual from X̃ and F, so what a flooding patch leaves behind does not
// depend on how many came before it. 300 sequential flooding label patches
// stay within 1e-6 of the fixed point, and the error after the 300th is no
// more than twice the error after the 10th. (A round that forwarded
// R ← εW·R·H̃ instead would never see the sub-tolerance mass earlier drains
// discarded, and drift.)
func TestFloodingPatchesAreHistoryFree(t *testing.T) {
	const n, m, k = 3000, 15000, 3
	w, x := plantedPowerLaw(t, n, m, k)
	h := testH(k, 0.5)
	s, err := NewState(w, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var errAt10, errAt300 float64
	for patch := 1; patch <= 300; patch++ {
		st := applyPatch(s, func(p *Patch) {
			for i := 0; i < 4; i++ {
				setSeed(p, x, rng.Intn(n), rng.Intn(k))
			}
		})
		if !st.FellBack {
			t.Fatalf("patch %d did not flood: %+v", patch, st)
		}
		if patch != 10 && patch%50 != 0 {
			continue
		}
		d := maxAbsDiff(s.Beliefs(), fixedPoint(t, w, h, x))
		if d > 1e-6 {
			t.Errorf("after patch %d beliefs are %g off the fixed point", patch, d)
		}
		switch patch {
		case 10:
			errAt10 = d
		case 300:
			errAt300 = d
		}
	}
	if errAt300 > 2*errAt10 {
		t.Errorf("error grew with history: %g after patch 300 vs %g after patch 10", errAt300, errAt10)
	}
}
