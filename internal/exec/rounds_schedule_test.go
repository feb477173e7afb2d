package exec

import (
	"math"
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

// schedulePass builds a Pass over an n-node ring with `active` dirty rows
// of unit residual and a near-zero H̃, so every drain finishes in exactly
// ONE round — the pass's round counters then pin precisely how the first
// (and only) round was priced.
func schedulePass(t *testing.T, n, active int) (*Pass, []int32) {
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
	return NewPass(w, h, f, r, norms, 1e-8, Runner{}, nil), list
}

// TestPassFullScanThreshold pins the pricing edge of a round. The
// threshold is stored entries, not nodes: a round is a tracked scatter
// while its active rows own at most nnz(W)/DeltaDivisor of them and one
// whole-matrix round past that. On the ring every row owns 2 of the 2n
// entries, so the edge sits at n/DeltaDivisor active rows.
func TestPassFullScanThreshold(t *testing.T) {
	const n = 80
	atLimit := ringCSR(t, n).NNZ() / DeltaDivisor / 2 // rows owning exactly nnz/DeltaDivisor entries
	cases := []struct {
		active      int
		wantScatter int
		wantDelta   int
	}{
		{atLimit - 1, 1, 0}, // below: tracked scatter
		{atLimit, 1, 0},     // exactly nnz/DeltaDivisor entries: still tracked (strict >)
		{atLimit + 1, 0, 1}, // one row past: whole-matrix round
	}
	for _, c := range cases {
		p, active := schedulePass(t, n, c.active)
		pushed, _, rounds, remaining := drainAll(p, active)
		if remaining != nil || pushed != c.active || rounds != 1 {
			t.Fatalf("active=%d: drain = pushed %d rounds %d remaining %v", c.active, pushed, rounds, remaining)
		}
		if p.scatterRounds != c.wantScatter || p.deltaRounds != c.wantDelta {
			t.Errorf("active=%d (threshold %d entries): scatter=%d delta=%d, want scatter=%d delta=%d",
				c.active, ringCSR(t, n).NNZ()/DeltaDivisor, p.scatterRounds, p.deltaRounds, c.wantScatter, c.wantDelta)
		}
	}
}

// TestTunedSchedulesConverge is the guard that DeltaDivisor sits inside a
// covered regime: a divisor swept well past the default must drain to the
// same fixed point as the default on one worker. The divisor can only ever
// change performance, never beliefs beyond the tolerance.
func TestTunedSchedulesConverge(t *testing.T) {
	const n, k = 96, 2
	w := ringCSR(t, n)
	h := dense.New(k, k)
	h.Data[0], h.Data[1], h.Data[2], h.Data[3] = 0.2, -0.1, -0.1, 0.2
	build := func(workers int, active int) (*Pass, *dense.Matrix, []int32) {
		f := dense.New(n, k)
		r := dense.New(n, k)
		norms := make([]float64, n)
		list := make([]int32, active)
		for i := 0; i < active; i++ {
			r.Data[i*k] = 1
			norms[i] = 1
			list[i] = int32(i)
		}
		return NewPass(w, h, f, r, norms, 1e-10, Runner{Workers: workers}, nil), f, list
	}
	pSeq, fSeq, aSeq := build(1, 24)
	drainAll(pSeq, aSeq)
	if pSeq.scatterRounds == 0 {
		t.Fatal("reference drain ran no scatter round")
	}
	for _, dd := range []int{DeltaDivisor, 8, 64} {
		p, f, active := build(0, 24)
		p.divisor = dd
		pushed, _, _, remaining := drainAll(p, active)
		if remaining != nil || pushed == 0 {
			t.Fatalf("divisor %d: drain = pushed %d remaining %v", dd, pushed, remaining)
		}
		for i := range fSeq.Data {
			if d := math.Abs(fSeq.Data[i] - f.Data[i]); d > 1e-9 {
				t.Fatalf("divisor %d disagrees with the reference at %d by %g", dd, i, d)
			}
		}
	}
}
