package exec

import (
	"sync/atomic"

	"factorgraph/internal/dense"
)

// minPullWorkers is the parallelism below which the level-synchronous
// drain runs its sequential scatter schedule instead of the parallel pull
// one. Pull pays a discovery pass plus a full row re-scan at every gather
// in exchange for race freedom; the scatter schedule is the only one a
// single worker can run.
const minPullWorkers = 2

// deltaDivisor: once the active set exceeds n/deltaDivisor, a parallel
// round stops tracking candidates and runs a whole-matrix delta sweep
// instead — F += R; R ← A·R. By linearity that is exactly one Jacobi round
// over every row at once, and it runs on the branch-free CSR multiply
// kernel at a fraction of the per-edge cost of a tracked gather; at this
// density nearly everything neighbors the frontier anyway.
const deltaDivisor = 2

// PullPass drains a saturated frontier with level-synchronous rounds over
// dense residual storage, picking its schedule by available parallelism.
// The adjacency is accessed through the RowIterator abstraction, so the
// same pass drains a frozen CSR matrix and a mutable delta overlay alike.
//
// With ≥minPullWorkers workers each round is a race-free parallel pull
// pass. For moderate frontiers it is three phases:
//
//  1. absorb (parallel over the active list): every active node folds its
//     residual row into its belief row, precomputes its outgoing message
//     r·H̃ into a per-slot buffer, and claims its neighbors as gather
//     candidates (an atomic CAS on a mark word dedupes claims — the only
//     atomic in the pass, and it guards list membership, not float data);
//  2. gather (parallel over the candidates): every candidate pulls
//     w(v,u)·(r_u·H̃) from its active neighbors into its own residual row —
//     W is symmetric, so scanning the candidate's row yields exactly its
//     in-edges — and recomputes its norm; each row is written by exactly
//     one worker, so no synchronization touches the data;
//  3. the survivors (norm > tol) become the next round's active list.
//
// Past n/deltaDivisor active nodes the round degenerates to a delta sweep
// — F += R, R ← εW·R·H̃ (exactly the same Jacobi round applied to every
// row at once, by linearity) — which runs on the branch-free CSR multiply
// kernel. Parallel rounds are a Jacobi schedule: mass absorbed in a round
// is forwarded strictly in the next one, so the result is independent of
// worker count.
//
// Below minPullWorkers the drain is the classic sequential Gauss–Seidel
// scatter scan: each active node pushes directly into its neighbors' rows,
// with mass forwarded within the round. All schedules contract at ~s per
// round and drain to the same tolerance; final beliefs differ only inside
// it.
type PullPass struct {
	w   RowIterator
	n   int
	hs  []float64 // k×k, row-major, ε-scaled
	k   int
	f   *dense.Matrix
	r   *dense.Matrix
	nrm []float64
	tol float64
	run Runner

	// sched holds the drain thresholds (DefaultSchedule for the pass's
	// dimensions; tests sweep others).
	sched Schedule

	activeIdx []int32  // node → slot in rh, -1 when inactive (pull)
	mark      []uint32 // candidate-claim words (pull) / in-queue flags (scatter)
	rh        []float64
	cand      [][]int32
	next      [][]int32
	candBuf   []int32
	buckets   [][]int32 // sticky gather: candidates bucketed by node range

	fh, wfh *dense.Matrix // delta-sweep scratch, allocated on first use

	// trackedRounds / deltaRounds / scatterRounds count which schedule each
	// round of this pass actually ran; the scheduling-boundary tests pin the
	// n/deltaDivisor and minPullWorkers heuristics on them.
	trackedRounds, deltaRounds, scatterRounds int
}

// NewPullPass builds a pass over dense (f, r, norms) storage. The two
// n-length scratch arrays (slot map and mark words) are allocated here and
// freed with the pass — callers demoting their dense tier drop the whole
// pass. norms must reflect r (∞-norm per row); the pass maintains it.
func NewPullPass(w RowIterator, hScaled, f, r *dense.Matrix, norms []float64, tol float64, run Runner) *PullPass {
	n := w.Dim()
	p := &PullPass{
		w: w, n: n, hs: hScaled.Data, k: hScaled.Rows,
		f: f, r: r, nrm: norms, tol: tol, run: run,
		sched:     DefaultSchedule(n, hScaled.Rows),
		activeIdx: make([]int32, n),
		mark:      make([]uint32, n),
		cand:      make([][]int32, run.MaxChunks()),
		next:      make([][]int32, run.MaxChunks()),
	}
	for i := range p.activeIdx {
		p.activeIdx[i] = -1
	}
	return p
}

// Drain runs rounds until the frontier empties or edge traversals exceed
// edgeBudget (<= 0 = unbounded). It returns the push work performed, the
// number of rounds run and, when the budget was exceeded, the still-dirty
// frontier (norms are exact for it); remaining is nil on a clean drain.
// The schedule — parallel pull vs sequential scatter — is chosen by the
// available worker count; both produce a frontier drained to tolerance.
func (p *PullPass) Drain(active []int32, edgeBudget int) (pushed, edges, rounds int, remaining []int32) {
	if p.run.MaxChunks() >= p.sched.MinPullWorkers {
		return p.drainPull(active, edgeBudget)
	}
	return p.drainScatter(active, edgeBudget)
}

func (p *PullPass) drainPull(active []int32, edgeBudget int) (pushed, edges, rounds int, remaining []int32) {
	for len(active) > 0 {
		rounds++
		pushed += len(active)
		if len(active) > p.n/p.sched.DeltaDivisor {
			p.deltaRounds++
			mRoundsDelta.Inc()
			active, edges = p.deltaRound(active, edges)
		} else {
			p.trackedRounds++
			mRoundsTracked.Inc()
			active, edges = p.pullRound(active, edges)
		}
		if edgeBudget > 0 && edges > edgeBudget {
			if len(active) == 0 {
				return pushed, edges, rounds, nil
			}
			return pushed, edges, rounds, active
		}
	}
	return pushed, edges, rounds, nil
}

// pullRound is one candidate-tracked Jacobi round: absorb + discover in
// parallel over the active list, then gather in parallel over the
// candidates. Work is proportional to the frontier's neighborhood.
func (p *PullPass) pullRound(active []int32, edges int) ([]int32, int) {
	k := p.k
	if cap(p.rh) < len(active)*k {
		p.rh = make([]float64, len(active)*k)
	}
	rh := p.rh[:len(active)*k]
	edgeCh := make([]int, p.run.MaxChunks())
	// A phase over fewer items than chunks leaves the higher chunks unrun:
	// empty every per-chunk list first, or they would carry the previous
	// round's entries into this one (rows gathered twice, by two workers).
	for c := range p.cand {
		p.cand[c] = p.cand[c][:0]
		p.next[c] = p.next[c][:0]
	}

	// Phase 1: absorb active rows, precompute messages, claim candidates.
	p.run.RowsIndexed(len(active), func(chunk, lo, hi int) {
		cand := p.cand[chunk][:0]
		edgeN := 0
		for idx := lo; idx < hi; idx++ {
			u := int(active[idx])
			rRow := p.r.Data[u*k : (u+1)*k]
			fRow := p.f.Data[u*k : (u+1)*k]
			out := rh[idx*k : (idx+1)*k]
			for j := 0; j < k; j++ {
				acc := 0.0
				for c := 0; c < k; c++ {
					acc += rRow[c] * p.hs[c*k+j]
				}
				out[j] = acc
			}
			for j := 0; j < k; j++ {
				fRow[j] += rRow[j]
				rRow[j] = 0
			}
			p.nrm[u] = 0
			p.activeIdx[u] = int32(idx)
			cols, _ := p.w.Row(u)
			edgeN += len(cols)
			for _, v := range cols {
				if atomic.CompareAndSwapUint32(&p.mark[v], 0, 1) {
					cand = append(cand, v)
				}
			}
		}
		p.cand[chunk] = cand
		edgeCh[chunk] = edgeN
	})
	for c := range edgeCh {
		edges += edgeCh[c]
	}

	// Phase 2: candidates gather their incoming mass and re-norm. Under a
	// sticky schedule candidates are first bucketed by node range so chunk
	// c gathers the same belief/residual range round after round — repeat
	// rounds touch cache-warm rows instead of an arbitrary slice of the
	// discovery order. Each row is gathered exactly once either way, so
	// the two layouts produce identical results.
	p.candBuf = p.candBuf[:0]
	for c := range p.cand {
		p.candBuf = append(p.candBuf, p.cand[c]...)
	}
	if p.sched.Sticky {
		nChunks := p.run.MaxChunks()
		if len(p.buckets) != nChunks {
			p.buckets = make([][]int32, nChunks)
		}
		for b := range p.buckets {
			p.buckets[b] = p.buckets[b][:0]
		}
		span := (p.n + nChunks - 1) / nChunks
		for _, v := range p.candBuf {
			b := int(v) / span
			p.buckets[b] = append(p.buckets[b], v)
		}
		p.run.RowsIndexed(nChunks, func(chunk, lo, hi int) {
			next := p.next[chunk][:0]
			for b := lo; b < hi; b++ {
				for _, v := range p.buckets[b] {
					next = p.gatherOne(int(v), rh, next)
				}
			}
			p.next[chunk] = next
		})
	} else {
		p.run.RowsIndexed(len(p.candBuf), func(chunk, lo, hi int) {
			next := p.next[chunk][:0]
			for i := lo; i < hi; i++ {
				next = p.gatherOne(int(p.candBuf[i]), rh, next)
			}
			p.next[chunk] = next
		})
	}

	// Phase 3: clear the slot map, install the survivors.
	p.run.Rows(len(active), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.activeIdx[active[i]] = -1
		}
	})
	nextActive := active[:0] // reuse; phase 1/2 no longer read it
	for c := range p.next {
		nextActive = append(nextActive, p.next[c]...)
	}
	return nextActive, edges
}

// gatherOne folds the active neighbors' messages into candidate v's
// residual row (phase 2 of a tracked round), re-norms it and appends v to
// next when it stays above tolerance.
func (p *PullPass) gatherOne(v int, rh []float64, next []int32) []int32 {
	k := p.k
	p.mark[v] = 0
	rRow := p.r.Data[v*k : (v+1)*k]
	cols, wts := p.w.Row(v)
	for q, u := range cols {
		idx := p.activeIdx[u]
		if idx < 0 {
			continue
		}
		wv := 1.0
		if wts != nil {
			wv = wts[q]
		}
		msg := rh[int(idx)*k : (int(idx)+1)*k]
		for j := 0; j < k; j++ {
			rRow[j] += wv * msg[j]
		}
	}
	norm := 0.0
	for _, a := range rRow {
		if a < 0 {
			a = -a
		}
		if a > norm {
			norm = a
		}
	}
	p.nrm[v] = norm
	if norm > p.tol {
		next = append(next, int32(v))
	}
	return next
}

// deltaRound is one whole-matrix Jacobi round: F += R, then R ← εW·R·H̃
// (the forwarded mass of every row at once — linearity makes it identical
// to absorbing and scattering each row individually, sub-tolerance rows
// included). It runs entirely on flat parallel passes and the CSR multiply
// kernel, with no per-edge bookkeeping; edge accounting still charges the
// active degrees so the budget semantics match the tracked rounds.
func (p *PullPass) deltaRound(active []int32, edges int) ([]int32, int) {
	n, k := p.n, p.k
	if p.fh == nil {
		p.fh = dense.New(n, k)
		p.wfh = dense.New(n, k)
	}
	for _, u := range active {
		cols, _ := p.w.Row(int(u))
		edges += len(cols)
	}
	// Phase 1: fh ← R·H̃ and F ← F + R, row-parallel.
	p.run.Rows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rRow := p.r.Data[i*k : (i+1)*k]
			fRow := p.f.Data[i*k : (i+1)*k]
			out := p.fh.Data[i*k : (i+1)*k]
			for j := 0; j < k; j++ {
				acc := 0.0
				for c := 0; c < k; c++ {
					acc += rRow[c] * p.hs[c*k+j]
				}
				out[j] = acc
			}
			for j := 0; j < k; j++ {
				fRow[j] += rRow[j]
			}
		}
	})
	// Phase 2: wfh ← W·(R·H̃) on the shared multiply kernel.
	p.w.MulDenseInto(p.wfh, p.fh)
	// Phase 3: R ← wfh, re-norm, collect survivors.
	p.run.RowsIndexed(n, func(chunk, lo, hi int) {
		next := p.next[chunk][:0]
		for i := lo; i < hi; i++ {
			rRow := p.r.Data[i*k : (i+1)*k]
			wRow := p.wfh.Data[i*k : (i+1)*k]
			norm := 0.0
			for j := 0; j < k; j++ {
				v := wRow[j]
				rRow[j] = v
				if v < 0 {
					v = -v
				}
				if v > norm {
					norm = v
				}
			}
			p.nrm[i] = norm
			if norm > p.tol {
				next = append(next, int32(i))
			}
		}
		p.next[chunk] = next
	})
	nextActive := active[:0]
	for c := range p.next {
		nextActive = append(nextActive, p.next[c]...)
	}
	return nextActive, edges
}

// drainScatter is the single-worker schedule: a Gauss–Seidel scan of the
// active list pushing straight into neighbor rows. mark doubles as the
// in-next-queue flag (no atomics — the scan is sequential by design).
func (p *PullPass) drainScatter(active []int32, edgeBudget int) (pushed, edges, rounds int, remaining []int32) {
	k := p.k
	if cap(p.rh) < k {
		p.rh = make([]float64, k)
	}
	rh := p.rh[:k]
	for _, v := range active {
		p.mark[v] = 1
	}
	next := make([]int32, 0, len(active))
	for len(active) > 0 {
		rounds++
		p.scatterRounds++
		mRoundsScatter.Inc()
		next = next[:0]
		for _, u32 := range active {
			u := int(u32)
			p.mark[u] = 0
			if p.nrm[u] <= p.tol {
				continue // absorbed earlier this round
			}
			rRow := p.r.Data[u*k : (u+1)*k]
			fRow := p.f.Data[u*k : (u+1)*k]
			for j := 0; j < k; j++ {
				acc := 0.0
				for c := 0; c < k; c++ {
					acc += rRow[c] * p.hs[c*k+j]
				}
				rh[j] = acc
			}
			for j := 0; j < k; j++ {
				fRow[j] += rRow[j]
				rRow[j] = 0
			}
			p.nrm[u] = 0
			pushed++
			cols, wts := p.w.Row(u)
			edges += len(cols)
			for q, v32 := range cols {
				v := int(v32)
				wv := 1.0
				if wts != nil {
					wv = wts[q]
				}
				nRow := p.r.Data[v*k : (v+1)*k]
				norm := 0.0
				for j := 0; j < k; j++ {
					nRow[j] += wv * rh[j]
					a := nRow[j]
					if a < 0 {
						a = -a
					}
					if a > norm {
						norm = a
					}
				}
				p.nrm[v] = norm
				// Re-queue only nodes not still pending this round (their
				// later scan absorbs the fresh mass — that is the
				// Gauss–Seidel advantage) and not already queued for next.
				if norm > p.tol && p.mark[v] == 0 {
					p.mark[v] = 1
					next = append(next, int32(v))
				}
			}
		}
		active, next = next, active
		if edgeBudget > 0 && edges > edgeBudget {
			for _, v := range active {
				p.mark[v] = 0 // leave the marks clean for a later drain
			}
			if len(active) == 0 {
				return pushed, edges, rounds, nil
			}
			return pushed, edges, rounds, active
		}
	}
	return pushed, edges, rounds, nil
}

// DenseRound computes wfh = W·(f·hScaled) — the dense matrix core both
// solvers iterate — and then invokes finish over row chunks in parallel.
// fh and wfh are caller scratch (n×k); finish typically fuses the solver's
// per-row update (belief update, residual recomputation) so each round is
// exactly three parallel passes over the data. The sparse multiply always
// runs on the full shared pool; the Runner's worker cap applies to the
// dense passes.
func (r Runner) DenseRound(w RowIterator, f, hScaled, fh, wfh *dense.Matrix, finish func(chunk, lo, hi int)) {
	mDenseRounds.Inc()
	k := hScaled.Cols
	r.Rows(f.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fRow := f.Data[i*k : (i+1)*k]
			out := fh.Data[i*k : (i+1)*k]
			for j := 0; j < k; j++ {
				acc := 0.0
				for c := 0; c < k; c++ {
					acc += fRow[c] * hScaled.Data[c*k+j]
				}
				out[j] = acc
			}
		}
	})
	w.MulDenseInto(wfh, fh)
	r.RowsIndexed(w.Dim(), finish)
}
