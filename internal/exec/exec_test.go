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
// chunk ids stay below MaxChunks, and a chunk id is never shared by two
// concurrent ranges (per-chunk scratch would race otherwise).
func TestRunnerRowsIndexed(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		r := Runner{Workers: workers}
		for _, n := range []int{0, 1, 7, 1000} {
			seen := make([]int32, n)
			r.RowsIndexed(n, func(chunk, lo, hi int) {
				if chunk < 0 || chunk >= r.MaxChunks() {
					t.Errorf("workers=%d n=%d: chunk %d outside [0,%d)", workers, n, chunk, r.MaxChunks())
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

// pullFixture builds a (W, H̃, F, R) quadruple with a dirty frontier. The
// scaled H̃ has spectral norm well below 1 so drains contract.
func pullFixture(t *testing.T, n, k int, dirtyFrac float64, seed int64) (w *sparse.CSR, hs, f, r *dense.Matrix, norms []float64, active []int32) {
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
func exactX(p *PullPass) func() *dense.Matrix {
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
// shape the schedule tests read.
func drainAll(p *PullPass, active []int32) (pushed, edges, rounds int, remaining []int32) {
	pushed, edges, rounds, _, remaining = p.Drain(active, exactX(p), 0)
	return pushed, edges, rounds, remaining
}

// applyA computes out = W · (m · H̃), the contraction the drain applies.
func applyA(w *sparse.CSR, hs, m *dense.Matrix) *dense.Matrix {
	mh := dense.Mul(m, hs)
	return w.MulDense(mh)
}

// TestPullPassConvergesToInvariant: after a drain, F must equal the exact
// solution F0 + (I − A)⁻¹ R0 within the tolerance bound, and every norm
// must be at or below tolerance — for every schedule: the parallel pull
// rounds (both candidate-discovery and full-scan flavors), the pinned
// single-worker execution of the same pull schedule (which must agree
// bitwise — Jacobi is schedule-deterministic), and the sequential
// Gauss–Seidel scatter.
func TestPullPassConvergesToInvariant(t *testing.T) {
	const n, k, tol = 600, 3, 1e-10
	for _, dirtyFrac := range []float64{0.05, 0.5} { // below and above the full-scan density
		w, hs, f0, r0, _, _ := pullFixture(t, n, k, dirtyFrac, 7)

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

		// MinPullWorkers forces a schedule whatever the machine offers: 1
		// always pulls, an unreachable count always scatters.
		minPull := map[string]int{"pull": 1, "pull-seq": 1, "scatter": 1 << 20, "auto-select": minPullWorkers}
		workersFor := map[string]int{"pull": 0, "pull-seq": 1, "scatter": 0, "auto-select": 0}
		results := map[string]*dense.Matrix{}
		for name := range minPull {
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
			p := NewPullPass(w, hs, f, r, norms, tol, Runner{Workers: workersFor[name]})
			p.sched.MinPullWorkers = minPull[name]
			pushed, edges, rounds, remaining := drainAll(p, active)
			if remaining != nil {
				t.Fatalf("%s frac=%v: unbounded drain returned remaining frontier", name, dirtyFrac)
			}
			if pushed == 0 || edges == 0 || rounds == 0 {
				t.Fatalf("%s frac=%v: drain did no work: pushed=%d edges=%d rounds=%d", name, dirtyFrac, pushed, edges, rounds)
			}
			for i := range norms {
				if norms[i] > tol {
					t.Fatalf("%s frac=%v: node %d left at norm %g > tol", name, dirtyFrac, i, norms[i])
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
				t.Errorf("%s frac=%v: drained beliefs off the exact solution by %g", name, dirtyFrac, worst)
			}
			results[name] = f
		}
		// The Jacobi pull schedule is worker-count-deterministic: the same
		// arithmetic runs, only on different goroutines.
		for i := range results["pull"].Data {
			if d := math.Abs(results["pull"].Data[i] - results["pull-seq"].Data[i]); d > 1e-12 {
				t.Fatalf("frac=%v: pull diverges across worker counts by %g at %d", dirtyFrac, d, i)
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
	w, hs, f, r, norms, active := pullFixture(t, n, k, 0.4, 11)
	p := NewPullPass(w, hs, f, r, norms, tol, Runner{})
	pushed, edges, _, sweeps, remaining := p.Drain(active, exactX(p), 1)
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

// TestDenseRoundMatchesNaive: the fused dense round equals the naive
// two-multiply composition, at a class count on each of MulRowsH's and the
// SpMM's kernel arms.
func TestDenseRoundMatchesNaive(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(3))
	w := ring(t, n)
	for _, k := range []int{4, 5, 6, 7, 8, 11} {
		h := dense.New(k, k)
		f := dense.New(n, k)
		for i := range h.Data {
			h.Data[i] = rng.Float64() - 0.5
		}
		for i := range f.Data {
			f.Data[i] = rng.Float64()
		}
		want := w.MulDense(dense.Mul(f, h))
		fh, wfh := dense.New(n, k), dense.New(n, k)
		got := dense.New(n, k)
		Runner{}.DenseRound(w, f, h, fh, wfh, func(_, lo, hi int) {
			copy(got.Data[lo*k:hi*k], wfh.Data[lo*k:hi*k])
		})
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
				t.Fatalf("k=%d: dense round diverges at %d: %g vs %g", k, i, got.Data[i], want.Data[i])
			}
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
