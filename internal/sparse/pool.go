package sparse

import (
	"runtime"
	"sync"
)

// The package keeps one long-lived worker pool shared by every row-parallel
// kernel (MulDenseInto today). Spawning goroutines per multiplication is
// cheap but not free: a serving engine calls MulDense thousands of times per
// second across concurrent queries, and a shared pool keeps the goroutine
// count bounded at GOMAXPROCS instead of queries×GOMAXPROCS.
var defaultPool = newWorkerPool(runtime.GOMAXPROCS(0))

type rowTask struct {
	fn     func(lo, hi int)
	lo, hi int
	job    *rowJob
}

// rowJob is one parallelRowsLimit call: the chunks still running and the
// first panic any of them raised, which the calling goroutine re-raises
// once every chunk is done. A panic must not end a pool worker: nothing
// above it recovers, so it would end the process (net/http's handler
// recovery never sees a goroutine it did not start).
type rowJob struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked bool
	val      any
}

// run runs one chunk, capturing a panic into its job.
func (t rowTask) run() {
	defer t.job.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			t.job.mu.Lock()
			if !t.job.panicked {
				t.job.panicked, t.job.val = true, v
			}
			t.job.mu.Unlock()
		}
	}()
	t.fn(t.lo, t.hi)
}

type workerPool struct {
	tasks chan rowTask
	size  int
}

func newWorkerPool(size int) *workerPool {
	if size < 1 {
		size = 1
	}
	p := &workerPool{tasks: make(chan rowTask, 4*size), size: size}
	for i := 0; i < size; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for t := range p.tasks {
		t.run()
	}
}

// ParallelRows splits [0, n) into one chunk per worker and runs fn on the
// shared pool, blocking until every chunk completes. fn must be safe to call
// concurrently on disjoint ranges. This is the package's own row-parallel
// primitive (MulDenseInto runs on it) exported for the execution layer
// (internal/exec), so every parallel kernel in the process shares one
// bounded goroutine pool instead of spawning its own.
func ParallelRows(n int, fn func(lo, hi int)) {
	defaultPool.parallelRowsLimit(n, 0, fn)
}

// ParallelRowsLimit is ParallelRows with the worker count capped at limit
// (0 or negative = no extra cap beyond GOMAXPROCS and the pool size).
// limit=1 degenerates to a plain sequential call — benchmark baselines use
// it to measure parallel speedup against identical code.
func ParallelRowsLimit(n, limit int, fn func(lo, hi int)) {
	defaultPool.parallelRowsLimit(n, limit, fn)
}

// MaxParallelWorkers reports how many chunks ParallelRowsLimit would use at
// most for a large n: the current GOMAXPROCS capped at the pool size (and at
// limit, when positive). Callers sizing per-chunk scratch use it.
func MaxParallelWorkers(limit int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > defaultPool.size {
		workers = defaultPool.size
	}
	if limit > 0 && workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelRows splits [0, n) into one chunk per worker and runs fn on the
// pool, blocking until every chunk completes. fn must be safe to call
// concurrently on disjoint ranges. Small inputs run inline: the fan-out
// overhead would dominate. A panic in any chunk is re-raised here, in the
// calling goroutine, after every chunk has finished. The chunk count
// tracks the CURRENT GOMAXPROCS (capped at the pool size), so lowering the
// proc limit after init does not over-split work across contended
// threads.
func (p *workerPool) parallelRows(n int, fn func(lo, hi int)) {
	p.parallelRowsLimit(n, 0, fn)
}

func (p *workerPool) parallelRowsLimit(n, limit int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > p.size {
		workers = p.size
	}
	if limit > 0 && workers > limit {
		workers = limit
	}
	if workers > n {
		workers = 1
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	job := new(rowJob)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		job.wg.Add(1)
		p.tasks <- rowTask{fn: fn, lo: lo, hi: hi, job: job}
	}
	job.wg.Wait()
	if job.panicked {
		panic(job.val)
	}
}
