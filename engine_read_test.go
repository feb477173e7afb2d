package factorgraph

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestColdQueryBesidePatchStream: a cold engine's first query — and the
// first one after a Reestimate voided the fixed point — is answered beside a
// stream of label patches with exactly one propagation. The cold solve is a
// writer, so the patches queue behind it instead of voiding it.
func TestColdQueryBesidePatchStream(t *testing.T) {
	g, seeds, _ := engineFixture(t, 20000, 100000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	stop, patcherDone := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				patcherDone <- nil
				return
			case <-tick.C:
			}
			if err := eng.UpdateLabels(map[int]int{(i * 37) % g.N: i % 3}, nil); err != nil {
				patcherDone <- err
				return
			}
		}
	}()
	coldQuery := func(why string) {
		t.Helper()
		before := eng.Stats().Propagations
		done := make(chan error, 1)
		go func() {
			_, err := eng.Classify(Query{Nodes: []int{1, 2, 3}, TopK: 2})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", why, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: unanswered after 30 s and %d propagations", why, eng.Stats().Propagations-before)
		}
		if got := eng.Stats().Propagations - before; got != 1 {
			t.Errorf("%s: %d propagations, want exactly 1", why, got)
		}
	}
	coldQuery("cold engine")
	if _, err := eng.Reestimate(); err != nil {
		t.Fatal(err)
	}
	coldQuery("after Reestimate")
	close(stop)
	if err := <-patcherDone; err != nil {
		t.Fatal(err)
	}
}

// TestWarmReadsNeverTakeTheWriterMutex: on a warm engine a plain point read,
// a full-graph read and a what-if all complete while the test holds the
// writer mutex — a count (zero acquisitions), not a clock.
func TestWarmReadsNeverTakeTheWriterMutex(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1000, 8000, 0.1)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
		t.Fatal(err) // the cold solve, the one read that is a writer
	}
	eng.patchMu.Lock()
	defer eng.patchMu.Unlock()
	done := make(chan error, 1)
	go func() {
		for _, q := range []Query{
			{Nodes: []int{1, 2, 3}, TopK: 2},
			{TopK: 3},
			{Nodes: []int{4}, ExtraSeeds: map[int]int{5: 1}},
			{ExtraSeeds: map[int]int{5: 1}}, // the same what-if, from its cache
		} {
			if _, err := eng.Classify(q); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a warm read is waiting on the writer mutex")
	}
	if st := eng.Stats(); st.Propagations != 1 {
		t.Errorf("propagations = %d, want 1", st.Propagations)
	}
}

// TestTopKTiesOrderByClass pins emitResult's order: descending score, ties
// by ascending class.
func TestTopKTiesOrderByClass(t *testing.T) {
	eng := &Engine{k: 4}
	for _, tc := range []struct {
		row  []float64
		topk int
		want []int
	}{
		{[]float64{0.1, 0.4, 0.3, 0.2}, 4, []int{1, 2, 3, 0}},
		{[]float64{0.5, 0.5, 0.1, 0.5}, 4, []int{0, 1, 3, 2}},
		{[]float64{1, 2, 2, 0}, 4, []int{1, 2, 0, 3}},
		{[]float64{0, 0, 0, 0}, 4, []int{0, 1, 2, 3}},
		{[]float64{-1, 3, 3, 3}, 2, []int{1, 2}},
		{[]float64{0.2, 0.1, 0.2, 0.1}, 3, []int{0, 2, 1}},
	} {
		var got []int
		err := eng.emitResult(7, tc.row, 0, tc.topk, make([]ClassScore, 4), func(r NodeResult) error {
			for _, cs := range r.Top {
				if cs.Score != tc.row[cs.Class] {
					t.Errorf("row %v: class %d reported with score %v", tc.row, cs.Class, cs.Score)
				}
				got = append(got, cs.Class)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("row %v top-%d: classes %v, want %v", tc.row, tc.topk, got, tc.want)
		}
	}
}

// TestFullGraphReadAllocs: a warm full-graph top-2 ClassifyEach allocates a
// constant handful — the one Top slab, with labels and scores pooled — not
// a slice per record.
func TestFullGraphReadAllocs(t *testing.T) {
	g, seeds, _ := engineFixture(t, 2000, 12000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	sink := func(NodeResult) error { return nil }
	read := func() {
		if err := eng.ClassifyEach(Query{TopK: 2}, sink); err != nil {
			t.Fatal(err)
		}
	}
	read() // the cold solve
	if a := testing.AllocsPerRun(10, read); a > 10 {
		t.Errorf("a full-graph top-2 read allocates %.0f times, want ≤ 10", a)
	}
}

// TestConcurrentReadsMatchSequential: full-graph and point reads from
// several goroutines at once, which trade the pooled read scratch between
// sizes and yield inside their emit loops, return exactly what the same
// reads return one at a time.
func TestConcurrentReadsMatchSequential(t *testing.T) {
	g, seeds, _ := engineFixture(t, 1500, 9000, 0.05)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{{TopK: 2}, {Nodes: []int{3, 1400, 77}, TopK: 3}, {}, {Nodes: []int{9}, TopK: 1}}
	want := make([][]NodeResult, len(queries))
	for i, q := range queries {
		if want[i], err = eng.Classify(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := (r + i) % len(queries)
				var got []NodeResult
				err := eng.ClassifyEach(queries[j], func(res NodeResult) error {
					if got = append(got, res); len(got)%16 == 1 {
						runtime.Gosched() // let another read take the pool's scratch
					}
					return nil
				})
				if err != nil || !reflect.DeepEqual(got, want[j]) {
					t.Errorf("reader %d, query %d: results differ from the sequential read (err %v)", r, j, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestMutateTopologyNodeLimit: node growth past the CSR's int32 id space is
// refused before anything n-sized is allocated, on cold and warm engines
// alike, and the refused batch leaves the engine as it was.
func TestMutateTopologyNodeLimit(t *testing.T) {
	g, seeds, _ := engineFixture(t, 300, 1500, 0.1)
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		if warm {
			if _, err := eng.Classify(Query{Nodes: []int{0}}); err != nil {
				t.Fatal(err)
			}
		}
		n0, m0 := eng.Dims()
		for _, add := range []int{math.MaxInt32 - n0 + 1, math.MaxInt32, math.MaxInt - n0 + 1, math.MaxInt} {
			if _, err := eng.MutateTopology(add, []EdgeMutation{{U: 0, V: 1}}); err == nil {
				t.Errorf("warm=%v: add_nodes %d on %d nodes accepted", warm, add, n0)
			}
			if n, m := eng.Dims(); n != n0 || m != m0 {
				t.Fatalf("warm=%v: refused add_nodes %d moved dims (%d,%d) → (%d,%d)", warm, add, n0, m0, n, m)
			}
			if got := len(eng.Seeds()); got != n0 {
				t.Fatalf("warm=%v: refused add_nodes %d grew the seed vector to %d", warm, add, got)
			}
		}
		if _, err := eng.MutateTopology(2, []EdgeMutation{{U: n0, V: n0 + 1}}); err != nil {
			t.Errorf("warm=%v: ordinary growth refused: %v", warm, err)
		}
	}
}
