package residual

import (
	"math/rand"
	"runtime"
	"testing"

	"factorgraph/internal/dense"
)

// widePatch queues a flip of a fraction of all seeds on p, so the flush
// frontier saturates.
func widePatch(p *Patch, x *dense.Matrix, n, k int, frac float64, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		if rng.Float64() >= frac {
			continue
		}
		row := x.Row(i)
		delta := make([]float64, k)
		for j := range delta {
			delta[j] = -row[j]
			row[j] = 0
		}
		c := rng.Intn(k)
		delta[c] += 1
		row[c] = 1
		p.AddDelta(i, delta)
	}
}

// atProcs runs f at GOMAXPROCS procs, then restores the previous value.
// The shared pool keeps the width it was started with, so procs past it
// run as many chunks as the pool has workers.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestWidePatchParallelParity: a patch wide enough to saturate the frontier
// (promoting to priced rounds: tracked scatters, then whole-matrix rounds)
// must leave the same bits at GOMAXPROCS 1 and 2, and land within 1e-6 of
// a from-scratch converged propagation. Run under -race in CI: the
// whole-matrix round is the drain's one parallel kernel.
func TestWidePatchParallelParity(t *testing.T) {
	n, k := 6000, 3
	w := randGraph(t, n, 6, 21)
	h := testH(k, 0.4)
	var beliefs []*dense.Matrix
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() {
			rng := rand.New(rand.NewSource(5))
			x := randX(n, k, 0.08, rng)
			s, err := NewState(w, h, Options{Tol: 1e-10, EdgeBudgetFactor: 64})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Init(x); err != nil {
				t.Fatal(err)
			}
			st := applyPatch(s, func(p *Patch) { widePatch(p, x, n, k, 0.4, rng) })
			if st.Rounds == 0 {
				t.Errorf("GOMAXPROCS %d: wide patch never promoted to priced rounds (pushed=%d)", procs, st.Pushed)
			}
			// FellBack is a decision, not a failure: flipping 40 % of the
			// seeds spreads until the active rows own over half the stored
			// entries, and from there a whole-matrix round is the cheaper
			// one whatever the budget (which only bounds the heap tier).
			if !st.FellBack || st.Sweeps == 0 {
				t.Errorf("GOMAXPROCS %d: wide patch ran no whole-matrix round (FellBack=%v sweeps=%d rounds=%d)",
					procs, st.FellBack, st.Sweeps, st.Rounds)
			}
			if s.DenseTier() {
				t.Errorf("GOMAXPROCS %d: dense tier resident after applying a promoted session", procs)
			}
			if d := maxAbsDiff(s.Beliefs(), fixedPoint(t, w, h, x)); d > 1e-6 {
				t.Errorf("GOMAXPROCS %d: beliefs differ from converged propagation by %g", procs, d)
			}
			beliefs = append(beliefs, s.Beliefs())
		})
	}
	for i, v := range beliefs[1].Data {
		if beliefs[0].Data[i] != v {
			t.Fatalf("beliefs differ between GOMAXPROCS 1 and 2 at %d: %v vs %v", i, beliefs[0].Data[i], v)
		}
	}
}

// TestSaturatedRoundScheduling: a saturated flush must promote exactly when
// the frontier passes the threshold, drain in level-synchronous rounds, and
// demote to an empty sparse tier — while a narrow patch must never leave
// the sparse tier.
func TestSaturatedRoundScheduling(t *testing.T) {
	n, k := 40000, 3 // promoteThreshold(40000) = 1250
	w := randGraph(t, n, 4, 33)
	h := testH(k, 0.5)
	rng := rand.New(rand.NewSource(9))
	x := randX(n, k, 0.05, rng)
	s, err := NewState(w, h, Options{Tol: 1e-9, EdgeBudgetFactor: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	if got := s.DirtyRows(); got != 0 {
		t.Fatalf("post-Init dirty rows = %d, want 0", got)
	}

	// Narrow patch: a perturbation that decays below tolerance within a
	// few hops must drain entirely in the sparse tier — no promotion, no
	// rounds, no sweeps. (A unit-mass patch on an expander legitimately
	// saturates: its above-tolerance ball is thousands of nodes, which is
	// exactly what the promotion threshold is for.)
	st := applyPatch(s, func(p *Patch) { p.AddDelta(17, []float64{1e-5, 0, 0}) })
	if st.Rounds != 0 || st.Sweeps != 0 {
		t.Errorf("narrow patch used rounds=%d sweeps=%d, want pure sparse-tier drain", st.Rounds, st.Sweeps)
	}
	if st.Pushed == 0 {
		t.Error("narrow patch pushed nothing")
	}
	if s.DirtyRows() > promoteThreshold(n) {
		t.Errorf("narrow patch left %d dirty rows", s.DirtyRows())
	}

	// Wide patch: saturates past promoteThreshold, drains in rounds.
	st = applyPatch(s, func(p *Patch) { widePatch(p, x, n, k, 0.2, rng) })
	if st.Rounds < 2 {
		t.Errorf("wide patch ran %d rounds, want level-synchronous drain (≥2)", st.Rounds)
	}
	if st.Pushed < promoteThreshold(n) {
		t.Errorf("wide patch pushed %d < promotion threshold %d", st.Pushed, promoteThreshold(n))
	}
	if s.DenseTier() {
		t.Error("dense tier resident after drain")
	}
	if got := s.DirtyRows(); got != 0 {
		t.Errorf("post-drain dirty rows = %d, want 0 (all mass above tol drained)", got)
	}
	if mr := s.MaxResidual(); mr > 1e-9 {
		t.Errorf("post-drain max residual %g > tol", mr)
	}
}

// TestMemoryTier: an idle state is sparse and small; a Rescale leaves the
// dense tier (and the exact invariant) resident, a session opened on it
// starts promoted and carries that residual, and applying it demotes the
// state again — at the rescaled fixed point.
func TestMemoryTier(t *testing.T) {
	n, k := 3000, 3
	w := randGraph(t, n, 6, 13)
	h := testH(k, 0.5)
	rng := rand.New(rand.NewSource(2))
	x := randX(n, k, 0.1, rng)
	s, err := NewState(w, h, Options{Tol: 1e-10, EdgeBudgetFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	idle := s.MemoryBytes()
	permanent := int64(2 * 8 * n * k)
	if idle < permanent || idle > permanent+int64(promoteThreshold(n))*s.mapRowBytes() {
		t.Errorf("idle MemoryBytes = %d, want ≈ %d (X̃+F only)", idle, permanent)
	}

	const c = 0.8 // ε_new/ε_old: the fixed point moves to s = 0.5·c
	s.Rescale(c)
	if !s.DenseTier() {
		t.Fatal("Rescale did not leave the dense tier resident")
	}
	if grown := s.MemoryBytes(); grown <= idle+int64(8*n*k) {
		t.Errorf("dense tier not accounted: %d ≤ %d", grown, idle)
	}
	// Whole-graph patch on top of the rescale under a 1× budget: the
	// session drains both and finishes with sweeps.
	st := applyPatch(s, func(p *Patch) { widePatch(p, x, n, k, 0.9, rng) })
	if !st.FellBack {
		t.Error("whole-graph patch converged by pushes under a 1× budget")
	}
	if s.DenseTier() {
		t.Error("dense tier resident after applying the session")
	}
	if after := s.MemoryBytes(); after > idle+int64(promoteThreshold(n))*s.mapRowBytes() {
		t.Errorf("post-apply MemoryBytes = %d, did not shrink back toward %d", after, idle)
	}
	want := fixedPointS(t, w, h, x, 0.5*c)
	if d := maxAbsDiff(s.Beliefs(), want); d > 1e-6 {
		t.Errorf("beliefs differ from converged propagation by %g after tier round-trip", d)
	}
}
