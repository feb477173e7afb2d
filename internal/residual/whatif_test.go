package residual

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"factorgraph/internal/dense"
)

// setSeed queues "node's explicit belief becomes one-hot class c" (c < 0
// clears it) on p as a delta against x, and mirrors it on x.
func setSeed(p *Patch, x *dense.Matrix, node, c int) {
	row := x.Row(node)
	delta := make([]float64, len(row))
	for j := range row {
		delta[j] = -row[j]
		row[j] = 0
	}
	if c >= 0 {
		delta[c] += 1
		row[c] = 1
	}
	p.AddDelta(node, delta)
}

// maxRowDiff is the largest gap between the session's view and want.
func maxRowDiff(p *Patch, want *dense.Matrix) float64 {
	worst := 0.0
	for i := 0; i < want.Rows; i++ {
		row := p.Row(i)
		for j := range row {
			if d := math.Abs(row[j] - want.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestUnappliedSessionMatchesFixedPoint: a session that is flushed and
// never applied answers the same beliefs as a from-scratch propagation with
// its seed changes in place, while the base state stays untouched.
func TestUnappliedSessionMatchesFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, k := 300, 3
	w := randGraph(t, n, 6, 21)
	h := testH(k, 0.4)
	x := randX(n, k, 0.1, rng)
	// Generous edge budget: at 300 nodes the frontier saturates the graph
	// well before a 1e-10 tolerance is reached (see TestPatchIsLocal).
	s, err := NewState(w, h, Options{Tol: 1e-10, EdgeBudgetFactor: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	baseCopy := s.Beliefs().Clone()

	// What-if: plant node 5 as class 2, clear node 6's seed (if any).
	x2 := x.Clone()
	p := s.BeginPatch()
	setSeed(p, x2, 5, 2)
	setSeed(p, x2, 6, -1)
	st := p.Flush()
	if st.FellBack {
		t.Fatal("small what-if fell back")
	}
	_, owned := p.OwnedRows(n)
	if st.Pushed == 0 || owned == 0 {
		t.Fatalf("session did no work: %+v, owned=%d", st, owned)
	}
	if owned == n {
		t.Errorf("session cloned every row; frontier is not localized")
	}
	if d := maxRowDiff(p, fixedPoint(t, w, h, x2)); d > 1e-6 {
		t.Errorf("what-if beliefs differ from full propagation by %g", d)
	}
	p.Abort()

	// Base state bit-identical.
	if d := maxAbsDiff(s.Beliefs(), baseCopy); d != 0 {
		t.Errorf("unapplied session mutated base beliefs by %g", d)
	}
	if mr := s.MaxResidual(); mr > 1e-10 {
		t.Errorf("unapplied session left residual %g in base", mr)
	}
}

// TestUnappliedSessionsConcurrent runs many sessions with different seeds
// concurrently over one base state (plus concurrent plain readers) and
// checks every session answers its own what-if, unpolluted by the others,
// and that the base is bit-identical once all have aborted — for sparse
// sessions (64× budget) and for flooding ones that promote to private dense
// views and sweep on the shared worker pool (1× budget). Run with -race.
func TestUnappliedSessionsConcurrent(t *testing.T) {
	for _, budget := range []float64{64, 1} {
		rng := rand.New(rand.NewSource(31))
		n, k := 400, 3
		w := randGraph(t, n, 6, 31)
		h := testH(k, 0.4)
		x := randX(n, k, 0.1, rng)
		s, err := NewState(w, h, Options{EdgeBudgetFactor: budget})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Init(x); err != nil {
			t.Fatal(err)
		}
		baseCopy := s.Beliefs().Clone()

		const workers = 16
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				node := wk * 20
				class := wk % k
				p := s.BeginPatch()
				defer p.Abort()
				setSeed(p, x.Clone(), node, class)
				if st := p.Flush(); st.FellBack != (budget == 1) {
					t.Errorf("budget %v session %d: FellBack = %v", budget, wk, st.FellBack)
				}
				// The overlaid node's own belief must now favor its class.
				row := p.Row(node)
				best := 0
				for j := 1; j < k; j++ {
					if row[j] > row[best] {
						best = j
					}
				}
				if best != class {
					t.Errorf("budget %v session %d: node %d argmax %d, want %d", budget, wk, node, best, class)
				}
			}(wk)
		}
		// Plain readers scanning base rows concurrently.
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					_ = s.Row(i)[0]
				}
			}()
		}
		wg.Wait()
		if d := maxAbsDiff(s.Beliefs(), baseCopy); d != 0 {
			t.Errorf("budget %v: concurrent sessions mutated base by %g", budget, d)
		}
	}
}

// TestUnappliedSessionFloodConverges: a what-if that floods the graph past
// the edge budget does not give up — it converges on the session's private
// clone with warm dense sweeps and says so with FellBack — and still leaves
// the base untouched.
func TestUnappliedSessionFloodConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, k := 300, 3
	w := randGraph(t, n, 8, 41)
	h := testH(k, 0.5)
	x := randX(n, k, 0.1, rng)
	s, err := NewState(w, h, Options{EdgeBudgetFactor: 1, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	baseCopy := s.Beliefs().Clone()
	x2 := x.Clone()
	p := s.BeginPatch()
	for i := 0; i < n; i++ {
		setSeed(p, x2, i, i%k)
	}
	st := p.Flush()
	if !st.FellBack || st.Sweeps == 0 {
		t.Errorf("graph-wide what-if: %+v, want FellBack with sweeps", st)
	}
	if rows, owned := p.OwnedRows(n - 1); rows != nil || owned != n {
		t.Errorf("promoted session owns %d rows (map %v), want all %d and no map past the limit", owned, rows != nil, n)
	}
	if d := maxRowDiff(p, fixedPoint(t, w, h, x2)); d > 1e-6 {
		t.Errorf("flooding what-if beliefs differ from full propagation by %g", d)
	}
	p.Abort()
	if d := maxAbsDiff(s.Beliefs(), baseCopy); d != 0 {
		t.Errorf("flooding session mutated base beliefs by %g", d)
	}
}
