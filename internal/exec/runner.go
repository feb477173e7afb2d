// Package exec is the shared parallel execution core of the two LinBP
// solvers. Before it existed the repo had two divergent execution paths:
// internal/propagation ran dense rounds on the sparse worker pool while
// internal/residual drained its push queue single-threaded under the
// serving engine's write lock. This package owns what both need —
//
//   - Runner: a chunked row-parallel executor over internal/sparse's
//     long-lived worker pool, with a worker cap so benchmarks can pin a
//     sequential baseline against identical code;
//   - Frontier: the small-tier dirty-node set of the push solver — a
//     typed Gauss–Southwell max-heap over a membership flag table the
//     caller lends, with a promotion signal once the set saturates (the
//     saturated tier's active list and mark flags belong to Pass, in a
//     PassScratch the caller can recycle across passes);
//   - Drain: the sequential largest-first push loop for heap-tier
//     frontiers, generic over a PushKernel so the solver's copy-on-write
//     patch sessions own the storage and this package the scheduling;
//   - Pass: the level-synchronous drain for saturated frontiers, every
//     round priced before it runs — a sequential Gauss–Seidel scatter
//     while the active rows own at most half the stored entries, one exact
//     whole-matrix round (ExactRound, also the round the residual solver's
//     Init repeats) past that; only the whole-matrix round runs in
//     parallel, and row by row, so beliefs do not depend on the worker
//     count;
//   - FoldRound: one round of the propagation solver, which iterates
//     G = F − X̃: a flat pass forms (X̃ + G)·H̃, and the SpMM writes W
//     times it straight into G; MulRowsH is the row·H̃ product every
//     round of both solvers shares.
//
// The package deliberately contains no solver mathematics beyond the
// rounds themselves: tolerances, scaling and storage tiers stay with the
// solvers.
package exec

import (
	"factorgraph/internal/sparse"
)

// Runner executes row-chunked work on the shared sparse worker pool.
// The zero value uses every available worker; Workers=1 is a strictly
// sequential executor running the same code path (tests use other caps to
// move chunk boundaries).
type Runner struct {
	// Workers caps the parallelism (0 = GOMAXPROCS, bounded by the pool).
	Workers int
}

// Rows runs fn over [0, n) split into one chunk per worker.
func (r Runner) Rows(n int, fn func(lo, hi int)) {
	sparse.ParallelRowsLimit(n, r.Workers, fn)
}

// MaxChunks reports how many chunks the pool would run right now: the
// current GOMAXPROCS capped at the pool size and at Workers. It re-reads
// GOMAXPROCS on every call, so a caller sizing per-chunk scratch reads it
// once and hands the same count to RowsIndexed.
func (r Runner) MaxChunks() int {
	return sparse.MaxParallelWorkers(r.Workers)
}

// RowsIndexed is Rows with a stable chunk index: [0, n) is split into
// min(chunks, n) contiguous ranges (empty ranges are skipped) and fn
// receives the index of the range it is running, always below chunks.
// Per-chunk scratch indexed by chunk is therefore written by exactly one
// worker at a time.
func (r Runner) RowsIndexed(n, chunks int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		fn(0, 0, n) // inline, and without the wrapper closure's allocation
		return
	}
	size := (n + chunks - 1) / chunks
	sparse.ParallelRowsLimit(chunks, r.Workers, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			fn(c, lo, hi)
		}
	})
}
