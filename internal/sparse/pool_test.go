package sparse

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolChunkPanicReachesCaller: a chunk that panics on a pool worker is
// re-raised in the calling goroutine, where its recover sees the value,
// and every worker survives it: the next job runs full width, each of its
// chunks waiting until all of them have started (a dead worker would leave
// that barrier short). Before workers recovered, the panic ended the
// process.
func TestPoolChunkPanicReachesCaller(t *testing.T) {
	workers := MaxParallelWorkers(0)
	if workers < 2 {
		t.Skip("below 2 workers every job runs inline, off the pool")
	}
	const n = 1000
	got := func() (v any) {
		defer func() { v = recover() }()
		ParallelRows(n, func(lo, hi int) { panic("chunk failed") })
		return nil
	}()
	if got != "chunk failed" {
		t.Fatalf("caller recovered %v, want the chunk's panic value", got)
	}

	var started atomic.Int32
	var short atomic.Bool
	hits := make([]int32, n)
	ParallelRows(n, func(lo, hi int) {
		started.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for started.Load() < int32(workers) {
			if time.Now().After(deadline) {
				short.Store(true)
				break
			}
			time.Sleep(time.Millisecond)
		}
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	if short.Load() {
		t.Fatalf("only %d of %d chunks ran at once after the panic", started.Load(), workers)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("row %d ran %d times", i, h)
		}
	}
}
