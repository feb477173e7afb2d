package exec

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// TestRunnerRowsIndexed: every index in [0, n) is visited exactly once,
// chunk ids stay below the count asked for, and a chunk id is never shared
// by two concurrent ranges (per-chunk scratch would race otherwise).
func TestRunnerRowsIndexed(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		r := Runner{Workers: workers}
		chunks := r.MaxChunks()
		for _, n := range []int{0, 1, 7, 1000} {
			seen := make([]int32, n)
			r.RowsIndexed(n, chunks, func(chunk, lo, hi int) {
				if chunk < 0 || chunk >= chunks {
					t.Errorf("workers=%d n=%d: chunk %d outside [0,%d)", workers, n, chunk, chunks)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// ring builds a weighted ring graph with a couple of chords per node.
func ring(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	edges := make([][2]int32, 0, 2*n)
	weights := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32((i + 1) % n)})
		weights = append(weights, 1)
		edges = append(edges, [2]int32{int32(i), int32((i + 7) % n)})
		weights = append(weights, 0.5)
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// passFixture builds a (W, H̃, F, R) quadruple with a dirty frontier. The
// scaled H̃ has spectral norm well below 1 so drains contract.
func passFixture(t *testing.T, n, k int, dirtyFrac float64, seed int64) (w *sparse.CSR, hs, f, r *dense.Matrix, norms []float64, active []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w = ring(t, n)
	hs = dense.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			hs.Set(i, j, (rng.Float64()-0.5)*0.05) // ‖εWH̃‖ ≪ 1 on a ring
		}
	}
	f = dense.New(n, k)
	r = dense.New(n, k)
	norms = make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			f.Set(i, j, rng.Float64())
		}
		if rng.Float64() < dirtyFrac {
			norm := 0.0
			for j := 0; j < k; j++ {
				v := rng.Float64() - 0.5
				r.Set(i, j, v)
				if math.Abs(v) > norm {
					norm = math.Abs(v)
				}
			}
			norms[i] = norm
			active = append(active, int32(i))
		}
	}
	return w, hs, f, r, norms, active
}

// exactX supplies the X̃ under which a pass's (F, R) pair is exact,
// X̃ = R + F − εW·F·H̃. Tracked rounds preserve the pair, so deriving it at
// the first whole-matrix round — when Drain asks — is as good as up front.
func exactX(p *Pass) func() *dense.Matrix {
	return func() *dense.Matrix {
		fh := dense.New(p.n, p.k)
		MulRowsH(fh.Data, p.f.Data, p.hs, p.k)
		x := dense.New(p.n, p.k)
		p.w.MulDenseInto(x, fh)
		for i := range x.Data {
			x.Data[i] = p.r.Data[i] + p.f.Data[i] - x.Data[i]
		}
		return x
	}
}

// drainAll is an uncapped Drain in the (pushed, edges, rounds, remaining)
// shape the pricing tests read.
func drainAll(p *Pass, active []int32) (pushed, edges, rounds int, remaining []int32) {
	pushed, edges, rounds, _, remaining = p.Drain(active, exactX(p), 0, nil)
	return pushed, edges, rounds, remaining
}

// applyA computes out = W · (m · H̃), the contraction the drain applies.
func applyA(w *sparse.CSR, hs, m *dense.Matrix) *dense.Matrix {
	mh := dense.Mul(m, hs)
	return w.MulDense(mh)
}

// TestPullPassConvergesToInvariant: after a drain, F must equal the exact
// solution F0 + (I − A)⁻¹ R0 within the tolerance bound, and every norm
// must be at or below tolerance — on every worker the machine has and on
// one, which must agree bit for bit: tracked rounds are one sequential
// scan, and a whole-matrix round computes every row on its own.
func TestPullPassConvergesToInvariant(t *testing.T) {
	const n, k, tol = 600, 3, 1e-10
	for _, dirtyFrac := range []float64{0.05, 0.5} { // below and above the whole-matrix density
		w, hs, f0, r0, _, _ := passFixture(t, n, k, dirtyFrac, 7)

		// Reference: F* = F0 + Σ_{i≥0} A^i R0, summed until exhaustion.
		want := f0.Clone()
		acc := r0.Clone()
		for i := 0; i < 200; i++ {
			dense.AddInPlace(want, acc)
			acc = applyA(w, hs, acc)
			if dense.MaxAbs(acc) < 1e-14 {
				break
			}
		}

		var results []*dense.Matrix
		for _, run := range []Runner{{}, {Workers: 1}} {
			f := f0.Clone()
			r := r0.Clone()
			norms := make([]float64, n)
			var active []int32
			for i := 0; i < n; i++ {
				norms[i] = infRow(r.Row(i))
				if norms[i] > tol {
					active = append(active, int32(i))
				}
			}
			p := NewPass(w, hs, f, r, norms, tol, run, nil)
			pushed, edges, rounds, remaining := drainAll(p, active)
			if remaining != nil {
				t.Fatalf("workers=%d frac=%v: unbounded drain returned remaining frontier", run.Workers, dirtyFrac)
			}
			if pushed == 0 || edges == 0 || rounds == 0 {
				t.Fatalf("workers=%d frac=%v: drain did no work: pushed=%d edges=%d rounds=%d", run.Workers, dirtyFrac, pushed, edges, rounds)
			}
			for i := range norms {
				if norms[i] > tol {
					t.Fatalf("workers=%d frac=%v: node %d left at norm %g > tol", run.Workers, dirtyFrac, i, norms[i])
				}
			}
			// F + (I−A)⁻¹ R must still be the invariant: with R ≤ tol the
			// belief error against the exact solution is O(tol/(1−s)).
			worst := 0.0
			for i := range f.Data {
				if d := math.Abs(f.Data[i] - want.Data[i]); d > worst {
					worst = d
				}
			}
			if worst > 1e-8 {
				t.Errorf("workers=%d frac=%v: drained beliefs off the exact solution by %g", run.Workers, dirtyFrac, worst)
			}
			results = append(results, f)
		}
		for i, v := range results[1].Data {
			if results[0].Data[i] != v {
				t.Fatalf("frac=%v: beliefs differ across worker counts at %d: %v vs %v", dirtyFrac, i, results[0].Data[i], v)
			}
		}
	}
}

// TestPullPassBudget: the one budget a promoted drain keeps — a cap on its
// whole-matrix rounds — stops it between rounds with an exact remaining
// frontier the caller can resume. The frontier starts tracked (under half
// the stored entries), floods, and a one-round cap stops the flood.
func TestPullPassBudget(t *testing.T) {
	const n, k, tol = 600, 3, 1e-12
	w, hs, f, r, norms, active := passFixture(t, n, k, 0.4, 11)
	p := NewPass(w, hs, f, r, norms, tol, Runner{}, nil)
	pushed, edges, _, sweeps, remaining := p.Drain(active, exactX(p), 1, nil)
	if remaining == nil || sweeps != 1 {
		t.Fatalf("tight budget drained cleanly (sweeps=%d)", sweeps)
	}
	if edges <= 1 || pushed == 0 {
		t.Fatalf("no work before budget stop: pushed=%d edges=%d", pushed, edges)
	}
	for _, v := range remaining {
		if norms[v] <= tol {
			t.Fatalf("remaining frontier lists clean node %d", v)
		}
	}
	// Resuming with no budget finishes the job.
	if _, _, _, rem2 := drainAll(p, remaining); rem2 != nil {
		t.Fatal("resumed drain did not finish")
	}
	for i, v := range norms {
		if v > tol {
			t.Fatalf("node %d left dirty after resume (%g)", i, v)
		}
	}
}

// TestDrainStopAfterWholeMatrixRounds: the stop predicate is asked after
// whole-matrix rounds only, and a true answer ends the drain at once with
// the exact dirty frontier, as a sweep cap does.
func TestDrainStopAfterWholeMatrixRounds(t *testing.T) {
	const n, k, tol = 600, 3, 1e-12
	w, hs, f, r, norms, active := passFixture(t, n, k, 0.4, 11)
	p := NewPass(w, hs, f, r, norms, tol, Runner{}, nil)
	asked := 0
	_, _, rounds, sweeps, remaining := p.Drain(active, exactX(p), 0, func() bool {
		asked++
		if asked != p.deltaRounds {
			t.Fatalf("stop asked %d times after %d whole-matrix rounds", asked, p.deltaRounds)
		}
		return asked == 2
	})
	if asked != 2 || sweeps != 2 || remaining == nil {
		t.Fatalf("stop after the second whole-matrix round: asked=%d sweeps=%d remaining=%v", asked, sweeps, remaining != nil)
	}
	if rounds != p.deltaRounds+p.scatterRounds {
		t.Fatalf("rounds = %d, ran %d whole-matrix + %d tracked", rounds, p.deltaRounds, p.scatterRounds)
	}
	for _, v := range remaining {
		if norms[v] <= tol {
			t.Fatalf("remaining frontier lists clean node %d", v)
		}
	}
}

// TestMulRowsHMatchesTripleLoop: every width MulRowsH specialises — locals
// at k ≤ 8, four-lane accumulators with a scalar remainder past it — equals
// the plain triple loop entry for entry, on a single row and on a block of
// rows.
func TestMulRowsHMatchesTripleLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= 12; k++ {
		hs := make([]float64, k*k)
		for i := range hs {
			hs[i] = rng.Float64() - 0.5
		}
		for _, rows := range []int{1, 257} {
			src := make([]float64, rows*k)
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			want := make([]float64, rows*k)
			for r := 0; r < rows; r++ {
				for j := 0; j < k; j++ {
					acc := 0.0
					for c := 0; c < k; c++ {
						acc += src[r*k+c] * hs[c*k+j]
					}
					want[r*k+j] = acc
				}
			}
			got := make([]float64, rows*k)
			MulRowsH(got, src, hs, k)
			for i, v := range want {
				if got[i] != v {
					t.Fatalf("k=%d rows=%d: entry %d is %v, triple loop %v", k, rows, i, got[i], v)
				}
			}
		}
	}
}

func infRow(row []float64) float64 {
	m := 0.0
	for _, v := range row {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
