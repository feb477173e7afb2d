package residual

import (
	"math/rand"
	"runtime"
	"testing"
)

// allocState is a warmed state on a 40 000-node random graph (about six
// neighbours a node) at tolerance tol.
func allocState(t *testing.T, tol float64) *State {
	t.Helper()
	const n, k = 40000, 3
	s, err := NewState(randGraph(t, n, 6, 1), testH(k, 0.6), Options{Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(randX(n, k, 0.05, rand.New(rand.NewSource(2)))); err != nil {
		t.Fatal(err)
	}
	return s
}

// labelSession is one label-patch session as the engine serves it: four
// explicit-belief deltas, a flush, an apply. It reports how many rows the
// session touched and whether it promoted.
func labelSession(s *State, deltas [][]float64) (touched int, promoted bool) {
	p := s.BeginPatch()
	for i, d := range deltas {
		p.AddDelta(11+7919*i, d)
	}
	st := p.Flush()
	if p.df == nil {
		touched = len(p.sc.touched)
	}
	p.Apply()
	return touched, st.Rounds > 0
}

// sessionDeltas are labelSession's four deltas, each moving mass sign
// between two classes, built once so the measured op allocates none of
// them.
func sessionDeltas(k int, sign float64) [][]float64 {
	deltas := make([][]float64, 4)
	for i := range deltas {
		deltas[i] = make([]float64, k)
		deltas[i][i%k], deltas[i][(i+1)%k] = sign, -sign
	}
	return deltas
}

// TestSparseSessionAllocsIndependentOfTouchedRows: once its state is warm,
// a sparse-tier session allocates the same number of objects whether it
// touches ~20 rows or ~700: its rows live in pooled slot storage, its
// frontier's heap and membership table are recycled, and the rows it
// retains reuse base rows that earlier applies freed. The op is a pair of
// sessions, one moving the seeds and one moving them back, so the state
// cycles instead of drifting and every measured op touches the same rows.
func TestSparseSessionAllocsIndependentOfTouchedRows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race")
	}
	allocs := map[string]float64{}
	for _, c := range []struct {
		name   string
		tol    float64
		lo, hi int
	}{
		{"narrow", 0.08, 10, 150},
		{"wide", 1e-3, 600, 2000},
	} {
		s := allocState(t, c.tol)
		there, back := sessionDeltas(s.K(), 1), sessionDeltas(s.K(), -1)
		op := func() (touched int) {
			a, pa := labelSession(s, there)
			b, pb := labelSession(s, back)
			if pa || pb {
				t.Fatalf("%s: a session promoted; want the sparse tier", c.name)
			}
			return max(a, b)
		}
		for i := 0; i < 10; i++ { // the retained rows settle within a few sessions
			op()
		}
		if touched := op(); touched < c.lo || touched > c.hi {
			t.Fatalf("%s: sessions touched %d rows, want %d–%d", c.name, touched, c.lo, c.hi)
		} else {
			allocs[c.name] = testing.AllocsPerRun(50, func() { op() }) / 2
			t.Logf("%s: %d rows touched, %.1f allocations per session", c.name, touched, allocs[c.name])
		}
	}
	if allocs["narrow"] != allocs["wide"] {
		t.Errorf("a session allocates %.1f objects touching ~20 rows and %.1f touching ~700; want the same count",
			allocs["narrow"], allocs["wide"])
	}
}

// TestPromotedSessionAllocatesNoMatrix: once its state is warm, a session
// that promotes to the dense tier allocates less than one n×k matrix of
// bytes per op — its belief, residual and X̃ copies, F·H̃, norm table,
// mark flags and row lengths all come from the pool, and Apply returns the
// superseded belief matrix to it.
func TestPromotedSessionAllocatesNoMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race")
	}
	s := allocState(t, 1e-8)
	deltas := sessionDeltas(s.K(), 1)
	sweeps := 0
	op := func() {
		p := s.BeginPatch()
		for i, d := range deltas {
			p.AddDelta(11+7919*i, d)
		}
		st := p.Flush()
		if st.Rounds == 0 {
			t.Fatal("session did not promote")
		}
		sweeps += st.Sweeps
		p.Apply()
	}
	for i := 0; i < 3; i++ {
		op()
	}
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweeps = 0
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if sweeps == 0 {
		t.Fatal("no whole-matrix round ran: X̃'s copy and F·H̃ went unexercised")
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	matrix := float64(8 * s.N() * s.K())
	t.Logf("promoted session: %.0f bytes per op; one n×k matrix is %.0f", perOp, matrix)
	if perOp >= matrix {
		t.Errorf("a promoted session allocates %.0f bytes per op, at least one n×k matrix (%.0f)", perOp, matrix)
	}
}
