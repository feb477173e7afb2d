package exec

import (
	"math"
	"runtime"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// ringCSR builds an n-node ring (each node adjacent to its two neighbors).
func ringCSR(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	edges := make([][2]int32, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int32{int32(i), int32((i + 1) % n)}
	}
	c, err := sparse.NewSymmetricFromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// schedulePass builds a PullPass over an n-node ring with `active` dirty
// rows of unit residual and a near-zero H̃, so every drain finishes in
// exactly ONE round — the pass's round counters then pin precisely which
// schedule the first (and only) round chose.
func schedulePass(t *testing.T, n, active, workers int) (*PullPass, []int32) {
	t.Helper()
	w := ringCSR(t, n)
	const k = 2
	h := dense.New(k, k)
	for i := range h.Data {
		h.Data[i] = 1e-12 // forwarded mass lands far below tol
	}
	f := dense.New(n, k)
	r := dense.New(n, k)
	norms := make([]float64, n)
	list := make([]int32, active)
	for i := 0; i < active; i++ {
		r.Data[i*k] = 1
		norms[i] = 1
		list[i] = int32(i)
	}
	return NewPullPass(w, h, f, r, norms, 1e-8, Runner{Workers: workers}), list
}

// TestPullPassScheduleByWorkers pins the minPullWorkers boundary: with
// fewer than minPullWorkers chunks the drain runs the sequential
// Gauss–Seidel scatter, at or above it the parallel pull schedule. The
// expectation is derived from the runner's actual chunk count, so the test
// holds on small CI machines too (where a large Workers cap still yields
// few chunks); the boundary cases 3/4 are additionally pinned exactly when
// the machine can express them.
func TestPullPassScheduleByWorkers(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		p, active := schedulePass(t, 80, 4, workers)
		pushed, _, rounds, remaining := drainAll(p, active)
		if remaining != nil || pushed != 4 || rounds != 1 {
			t.Fatalf("workers=%d: drain = pushed %d rounds %d remaining %v", workers, pushed, rounds, remaining)
		}
		wantPull := (Runner{Workers: workers}).MaxChunks() >= minPullWorkers
		gotPull := p.trackedRounds+p.deltaRounds > 0
		if gotPull != wantPull {
			t.Errorf("workers=%d (chunks=%d): pull schedule = %v, want %v (scatter=%d tracked=%d delta=%d)",
				workers, (Runner{Workers: workers}).MaxChunks(), gotPull, wantPull,
				p.scatterRounds, p.trackedRounds, p.deltaRounds)
		}
	}
	// The exact promotion edge, when this machine can express it: one chunk
	// fewer than minPullWorkers must scatter, minPullWorkers must pull.
	if runtime.GOMAXPROCS(0) < minPullWorkers {
		t.Skipf("GOMAXPROCS %d < %d: pull side of the boundary not expressible", runtime.GOMAXPROCS(0), minPullWorkers)
	}
	p3, a3 := schedulePass(t, 80, 4, minPullWorkers-1)
	drainAll(p3, a3)
	if p3.scatterRounds != 1 || p3.trackedRounds+p3.deltaRounds != 0 {
		t.Errorf("workers=%d: want exactly one scatter round, got scatter=%d tracked=%d delta=%d",
			minPullWorkers-1, p3.scatterRounds, p3.trackedRounds, p3.deltaRounds)
	}
	p4, a4 := schedulePass(t, 80, 4, minPullWorkers)
	drainAll(p4, a4)
	if p4.scatterRounds != 0 || p4.trackedRounds != 1 {
		t.Errorf("workers=%d: want exactly one tracked pull round, got scatter=%d tracked=%d delta=%d",
			minPullWorkers, p4.scatterRounds, p4.trackedRounds, p4.deltaRounds)
	}
}

// TestPullPassFullScanThreshold pins the pricing edge of a round. The
// threshold is stored entries, not nodes: a round is tracked while its
// active rows own at most nnz(W)/deltaDivisor of them and one whole-matrix
// round past that. On the ring every row owns 2 of the 2n entries, so the
// edge sits at n/deltaDivisor active rows.
func TestPullPassFullScanThreshold(t *testing.T) {
	if (Runner{}).MaxChunks() < minPullWorkers {
		t.Skipf("machine parallelism %d < %d: parallel schedule unavailable", (Runner{}).MaxChunks(), minPullWorkers)
	}
	const n = 80
	atLimit := ringCSR(t, n).NNZ() / deltaDivisor / 2 // rows owning exactly nnz/deltaDivisor entries
	cases := []struct {
		active      int
		wantTracked int
		wantDelta   int
	}{
		{atLimit - 1, 1, 0}, // below: tracked gather
		{atLimit, 1, 0},     // exactly nnz/deltaDivisor entries: still tracked (strict >)
		{atLimit + 1, 0, 1}, // one row past: whole-matrix round
	}
	for _, c := range cases {
		p, active := schedulePass(t, n, c.active, 0)
		pushed, _, rounds, remaining := drainAll(p, active)
		if remaining != nil || pushed != c.active || rounds != 1 {
			t.Fatalf("active=%d: drain = pushed %d rounds %d remaining %v", c.active, pushed, rounds, remaining)
		}
		if p.trackedRounds != c.wantTracked || p.deltaRounds != c.wantDelta {
			t.Errorf("active=%d (threshold %d entries): tracked=%d delta=%d, want tracked=%d delta=%d",
				c.active, ringCSR(t, n).NNZ()/deltaDivisor, p.trackedRounds, p.deltaRounds, c.wantTracked, c.wantDelta)
		}
	}
}

// TestPullPassSchedulesAgree: both schedules (and the whole-matrix round) drain
// to the same beliefs on the same input — the boundary is a performance
// decision, never a correctness one. Uses a real H̃ so multiple rounds run.
func TestPullPassSchedulesAgree(t *testing.T) {
	const n, k = 64, 2
	w := ringCSR(t, n)
	h := dense.New(k, k)
	h.Data[0], h.Data[1], h.Data[2], h.Data[3] = 0.2, -0.1, -0.1, 0.2
	build := func(workers, active int) (*PullPass, *dense.Matrix, []int32) {
		f := dense.New(n, k)
		r := dense.New(n, k)
		norms := make([]float64, n)
		list := make([]int32, active)
		for i := 0; i < active; i++ {
			r.Data[i*k] = 1
			norms[i] = 1
			list[i] = int32(i)
		}
		return NewPullPass(w, h, f, r, norms, 1e-10, Runner{Workers: workers}), f, list
	}
	// Sequential scatter reference vs parallel pull (small frontier →
	// tracked).
	pSeq, fSeq, aSeq := build(1, 12)
	drainAll(pSeq, aSeq)
	if pSeq.scatterRounds == 0 {
		t.Fatal("sequential reference did not run the scatter schedule")
	}
	if (Runner{}).MaxChunks() < minPullWorkers {
		t.Skipf("machine parallelism %d < %d: parallel schedules unavailable", (Runner{}).MaxChunks(), minPullWorkers)
	}
	pPar, fPar, aPar := build(0, 12)
	drainAll(pPar, aPar)
	if pPar.trackedRounds == 0 {
		t.Fatal("parallel drain did not run tracked rounds")
	}
	for i := range fSeq.Data {
		if d := math.Abs(fSeq.Data[i] - fPar.Data[i]); d > 1e-9 {
			t.Fatalf("scatter and pull disagree at %d by %g", i, d)
		}
	}
}

// TestTunedSchedulesConverge is the guard that DefaultSchedule's constants sit
// inside a covered regime: ANY schedule — DeltaDivisor and MinPullWorkers
// swept well past the defaults on both sides, sticky on or off — must drain
// to the same fixed point as the sequential Gauss–Seidel reference. A
// schedule can only ever change performance, never beliefs.
func TestTunedSchedulesConverge(t *testing.T) {
	const n, k = 96, 2
	w := ringCSR(t, n)
	h := dense.New(k, k)
	h.Data[0], h.Data[1], h.Data[2], h.Data[3] = 0.2, -0.1, -0.1, 0.2
	build := func(workers int, active int) (*PullPass, *dense.Matrix, []int32) {
		f := dense.New(n, k)
		r := dense.New(n, k)
		norms := make([]float64, n)
		list := make([]int32, active)
		for i := 0; i < active; i++ {
			r.Data[i*k] = 1
			norms[i] = 1
			list[i] = int32(i)
		}
		return NewPullPass(w, h, f, r, norms, 1e-10, Runner{Workers: workers}), f, list
	}
	// Sequential reference: one worker forces the scatter schedule.
	pSeq, fSeq, aSeq := build(1, 24)
	drainAll(pSeq, aSeq)
	if pSeq.scatterRounds == 0 {
		t.Fatal("sequential reference did not run the scatter schedule")
	}
	def := DefaultSchedule(n, k)
	for _, dd := range []int{def.DeltaDivisor, 8, 64} {
		for _, mpw := range []int{def.MinPullWorkers, 8} {
			for _, sticky := range []bool{false, true} {
				sched := Schedule{DeltaDivisor: dd, MinPullWorkers: mpw, Sticky: sticky}
				p, f, active := build(0, 24)
				p.sched = sched
				pushed, _, _, remaining := drainAll(p, active)
				if remaining != nil || pushed == 0 {
					t.Fatalf("sched %+v: drain = pushed %d remaining %v", sched, pushed, remaining)
				}
				for i := range fSeq.Data {
					if d := math.Abs(fSeq.Data[i] - f.Data[i]); d > 1e-9 {
						t.Fatalf("sched %+v disagrees with sequential at %d by %g", sched, i, d)
					}
				}
			}
		}
	}
}

// TestPullRoundDropsStaleChunkLists: a round over fewer active rows than
// chunks must not replay the candidates an unrun chunk collected in an
// earlier round — that gathered a row twice (double-counted mass, and two
// workers writing it). Two single-round drains on one pass: the second has
// one active row, so chunk 1 does not run and its list from the first drain
// (the same neighbors) would be gathered again.
func TestPullRoundDropsStaleChunkLists(t *testing.T) {
	run := Runner{Workers: 2}
	if run.MaxChunks() < minPullWorkers {
		t.Skipf("machine parallelism %d < %d: parallel schedule unavailable", run.MaxChunks(), minPullWorkers)
	}
	const n, k = 64, 2
	h := dense.New(k, k)
	h.Data[0], h.Data[1], h.Data[2], h.Data[3] = 0.2, -0.1, -0.1, 0.2
	f, r := dense.New(n, k), dense.New(n, k)
	norms := make([]float64, n)
	// tol above any mass in play: every drain is exactly one round.
	p := NewPullPass(ringCSR(t, n), h, f, r, norms, 10, run)
	seed := func(nodes ...int32) []int32 {
		for _, u := range nodes {
			r.Data[int(u)*k] = 1
			norms[u] = 1
		}
		return nodes
	}
	drainAll(p, seed(0, 10)) // chunk 0 claims {63, 1}, chunk 1 claims {9, 11}
	drainAll(p, seed(10))    // chunk 0 claims {9, 11}; chunk 1 does not run
	if p.trackedRounds != 2 {
		t.Fatalf("tracked rounds = %d, want 2", p.trackedRounds)
	}
	// Node 9 received node 10's message once per drain.
	if got, want := r.Data[9*k], 2*0.2; math.Abs(got-want) > 1e-15 {
		t.Errorf("r[9][0] = %v, want %v (one gather per round)", got, want)
	}
}

// TestDefaultScheduleSticky pins the one input-derived field: sticky gather
// turns on once the n×k float64 rows outgrow 1 MiB.
func TestDefaultScheduleSticky(t *testing.T) {
	if DefaultSchedule(1<<15, 4).Sticky {
		t.Error("sticky at exactly 1 MiB of rows")
	}
	if !DefaultSchedule(1<<15+1, 4).Sticky {
		t.Error("not sticky just past 1 MiB of rows")
	}
}
