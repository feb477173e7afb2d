package residual

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

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

// TestWidePatchParallelParity is the parallel-pushes-vs-sequential parity
// property: a patch wide enough to saturate the frontier (promoting to
// priced rounds: tracked, then whole-matrix) must land on the same fixed point as (a) the
// worker-pinned sequential drain of the identical state and (b) a
// from-scratch converged propagation, all within 1e-6. Run under -race in
// CI: the saturated drain is the only concurrently-mutating kernel in the
// repo.
func TestWidePatchParallelParity(t *testing.T) {
	n, k := 6000, 3
	w := randGraph(t, n, 6, 21)
	h := testH(k, 0.4)
	for _, opt := range []Options{
		{Tol: 1e-10, EdgeBudgetFactor: 64},             // parallel (all workers)
		{Tol: 1e-10, EdgeBudgetFactor: 64, Workers: 1}, // pinned sequential baseline
	} {
		rng := rand.New(rand.NewSource(5))
		x := randX(n, k, 0.08, rng)
		s, err := NewState(w, h, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Init(x); err != nil {
			t.Fatal(err)
		}
		st := applyPatch(s, func(p *Patch) { widePatch(p, x, n, k, 0.4, rng) })
		if st.Rounds == 0 {
			t.Errorf("workers=%d: wide patch never promoted to pull rounds (pushed=%d)", opt.Workers, st.Pushed)
		}
		// FellBack is a decision, not a failure: flipping 40 % of the seeds
		// spreads until the active rows own over half the stored entries,
		// and from there a whole-matrix round is the cheaper one whatever
		// the budget (which only bounds the heap tier).
		if !st.FellBack || st.Sweeps == 0 {
			t.Errorf("workers=%d: wide patch ran no whole-matrix round (FellBack=%v sweeps=%d rounds=%d)",
				opt.Workers, st.FellBack, st.Sweeps, st.Rounds)
		}
		if s.DenseTier() {
			t.Errorf("workers=%d: dense tier resident after applying a promoted session", opt.Workers)
		}
		want := fixedPoint(t, w, h, x)
		if d := maxAbsDiff(s.Beliefs(), want); d > 1e-6 {
			t.Errorf("workers=%d: beliefs differ from converged propagation by %g", opt.Workers, d)
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

// TestWidePatchParallelSpeedup is the tentpole latency acceptance: on ≥4
// cores, draining a wide patch (≥5% of nodes) with the parallel pull
// rounds must be ≥2× faster than the pinned sequential drain of identical
// work. Skipped in -short and on small machines, where the assert would
// measure the scheduler, not the executor.
func TestWidePatchParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-node benchmark; run without -short")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 cores for the 2× parallel assert, have %d", runtime.GOMAXPROCS(0))
	}
	n, k := 200_000, 3
	w := randGraph(t, n, 4, 99)
	h := testH(k, 0.5)

	drain := func(workers int) (time.Duration, Stats, *State) {
		rng := rand.New(rand.NewSource(4))
		x := randX(n, k, 0.05, rng)
		s, err := NewState(w, h, Options{Tol: 1e-8, EdgeBudgetFactor: 256, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Init(x); err != nil {
			t.Fatal(err)
		}
		p := s.BeginPatch()
		widePatch(p, x, n, k, 0.05, rng)
		start := time.Now()
		st := p.Flush()
		p.Apply()
		return time.Since(start), st, s
	}

	// Best of 3 per mode to shrug scheduler noise.
	best := func(workers int) (time.Duration, Stats, *State) {
		bd, bst, bs := time.Duration(1<<62), Stats{}, (*State)(nil)
		for i := 0; i < 3; i++ {
			d, st, s := drain(workers)
			if d < bd {
				bd, bst, bs = d, st, s
			}
		}
		return bd, bst, bs
	}
	seqDur, seqSt, seqS := best(1)
	parDur, parSt, parS := best(0)
	if parSt.Rounds == 0 || seqSt.Rounds == 0 {
		t.Fatalf("wide patch did not promote: rounds par=%d seq=%d", parSt.Rounds, seqSt.Rounds)
	}
	t.Logf("wide patch drain: parallel %v (%d pushes, %d rounds) vs sequential %v — %.2fx",
		parDur, parSt.Pushed, parSt.Rounds, seqDur, float64(seqDur)/float64(parDur))
	if seqDur < 2*parDur {
		t.Errorf("parallel drain %v not ≥2× faster than sequential %v", parDur, seqDur)
	}
	if d := maxAbsDiff(parS.Beliefs(), seqS.Beliefs()); d > 1e-6 {
		t.Errorf("parallel and sequential drains disagree by %g", d)
	}
}
