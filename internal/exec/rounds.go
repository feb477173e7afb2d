package exec

import (
	"math"
	"slices"
	"sync/atomic"

	"factorgraph/internal/dense"
)

// minPullWorkers is the parallelism below which a tracked round runs the
// sequential scatter schedule instead of the parallel pull one. Pull pays a
// discovery pass plus a full row re-scan at every gather in exchange for
// race freedom; the scatter schedule is the only one a single worker can
// run.
const minPullWorkers = 2

// deltaDivisor prices a round: while the active rows own at most
// nnz(W)/deltaDivisor stored entries the round tracks them, past that it is
// one whole-matrix round (ExactRound) on the branch-free CSR multiply
// kernel — a fraction of a tracked round's per-edge cost, and at that
// density nearly every row neighbors the frontier anyway. 2, not the ~5 the
// per-edge cost ratio alone suggests: Gauss–Seidel scatter converges in
// fewer rounds than Jacobi sweeps, and an edge-mutation batch's ~0.4·nnz
// middle round must stay tracked.
const deltaDivisor = 2

// PullPass drains a saturated frontier with level-synchronous rounds over
// dense residual storage, pricing every round before it runs (see Drain).
// The adjacency is accessed through the RowIterator abstraction, so the
// same pass drains a frozen CSR matrix and a mutable delta overlay alike.
//
// With ≥minPullWorkers workers a tracked round is a race-free parallel pull
// pass in three phases:
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
// Pull rounds are a Jacobi schedule: mass absorbed in a round is forwarded
// strictly in the next one, so the result is independent of worker count.
// Below minPullWorkers a tracked round is the classic sequential
// Gauss–Seidel scatter scan: each active node pushes directly into its
// neighbors' rows, with mass forwarded within the round. All schedules
// contract at ~s per round and drain to the same tolerance; final beliefs
// differ only inside it.
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

	mark    []uint32 // candidate-claim words (pull) / in-queue flags (scatter)
	rh      []float64
	cand    [][]int32
	next    [][]int32
	candBuf []int32
	buckets [][]int32 // sticky gather: candidates bucketed by node range

	activeIdx []int32 // pull only: node → slot in rh, -1 when inactive
	edgeCh    []int   // pull only: per-chunk edge counts
	rowLen    []int32 // pricing: stored entries per row, 0 = not read yet

	// Whole-matrix round scratch: F·H̃, per-chunk max norm bits, the
	// round's X̃, and the two flat passes bound once (a closure per round
	// would be an allocation per round).
	fh       *dense.Matrix
	chunkMax []uint64
	x        *dense.Matrix
	fold     func(lo, hi int)
	residual func(chunk, lo, hi int)

	// trackedRounds / deltaRounds / scatterRounds count which schedule each
	// round of this pass actually ran (delta = whole-matrix); the
	// scheduling-boundary tests pin the nnz/deltaDivisor and minPullWorkers
	// thresholds on them.
	trackedRounds, deltaRounds, scatterRounds int
}

// NewPullPass builds a pass over dense (f, r, norms) storage. Its n-length
// scratch (mark words here; the slot map, row-length table and F·H̃ on
// first use) is freed with the pass — callers demoting their dense tier
// drop the whole pass. norms must reflect r (∞-norm per row); the pass
// maintains it.
func NewPullPass(w RowIterator, hScaled, f, r *dense.Matrix, norms []float64, tol float64, run Runner) *PullPass {
	n := w.Dim()
	return &PullPass{
		w: w, n: n, hs: hScaled.Data, k: hScaled.Rows,
		f: f, r: r, nrm: norms, tol: tol, run: run,
		sched: DefaultSchedule(n, hScaled.Rows),
		mark:  make([]uint32, n),
		cand:  make([][]int32, run.MaxChunks()),
		next:  make([][]int32, run.MaxChunks()),
	}
}

// Drain runs rounds until the frontier empties, pricing each one by the
// stored entries its active rows own: at most nnz(W)/DeltaDivisor and the
// round is tracked (pull at ≥ MinPullWorkers chunks, scatter below), past
// that it is one whole-matrix ExactRound. x supplies X̃ and is called at
// most once, before the first whole-matrix round; maxSweeps > 0 caps those
// rounds so a drain terminates even where contraction is lost, returning
// the still-dirty frontier (norms exact for it). remaining is nil on a
// clean drain. pushed counts the above-tolerance rows every round absorbed;
// edges counts the entries tracked rounds traversed one at a time — each of
// the sweeps whole-matrix rounds reads all nnz(W) on the multiply kernel
// instead. The pass owns active afterwards.
func (p *PullPass) Drain(active []int32, x func() *dense.Matrix, maxSweeps int) (pushed, edges, rounds, sweeps int, remaining []int32) {
	pull := p.run.MaxChunks() >= p.sched.MinPullWorkers
	var xm *dense.Matrix
	for ; len(active) > 0; rounds++ {
		switch {
		case !p.tracked(active):
			if maxSweeps > 0 && sweeps == maxSweeps {
				return pushed, edges, rounds, sweeps, active
			}
			if xm == nil {
				xm = x()
			}
			sweeps++
			p.deltaRounds++
			mRoundsDelta.Inc()
			pushed += len(active)
			p.ExactRound(xm)
			active = p.survivors(active[:0])
		case pull:
			p.trackedRounds++
			mRoundsTracked.Inc()
			pushed += len(active)
			active, edges = p.pullRound(active, edges)
		default:
			active, pushed, edges = p.scatterRound(active, pushed, edges)
		}
	}
	return pushed, edges, rounds, sweeps, nil
}

// tracked prices the next round: it reports whether the active rows own at
// most nnz(W)/DeltaDivisor stored entries. A row's count comes from Row
// once per pass, from rowLen after that (an empty row is asked again).
func (p *PullPass) tracked(active []int32) bool {
	if p.rowLen == nil {
		p.rowLen = make([]int32, p.n)
	}
	limit := p.w.NNZ() / p.sched.DeltaDivisor
	owned := 0
	for _, u := range active {
		l := p.rowLen[u]
		if l == 0 {
			cols, _ := p.w.Row(int(u))
			l = int32(len(cols))
			p.rowLen[u] = l
		}
		if owned += int(l); owned > limit {
			return false
		}
	}
	return true
}

// survivors appends the per-chunk survivor lists of the round just run.
func (p *PullPass) survivors(into []int32) []int32 {
	for c := range p.next {
		into = append(into, p.next[c]...)
	}
	return into
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
	if p.activeIdx == nil { // a single-worker pass never holds these
		p.activeIdx = make([]int32, p.n)
		for i := range p.activeIdx {
			p.activeIdx[i] = -1
		}
		p.edgeCh = make([]int, len(p.cand))
	}
	edgeCh := p.edgeCh
	// A phase over fewer items than chunks leaves the higher chunks unrun:
	// empty every per-chunk list first, or they would carry the previous
	// round's entries into this one (rows gathered twice, by two workers)
	// and its edge counts.
	for c := range p.cand {
		p.cand[c] = p.cand[c][:0]
		p.next[c] = p.next[c][:0]
		edgeCh[c] = 0
	}

	// Phase 1: absorb active rows, precompute messages, claim candidates.
	p.run.RowsIndexed(len(active), func(chunk, lo, hi int) {
		cand := p.cand[chunk][:0]
		edgeN := 0
		for idx := lo; idx < hi; idx++ {
			u := int(active[idx])
			rRow := p.r.Data[u*k : (u+1)*k]
			fRow := p.f.Data[u*k : (u+1)*k]
			MulRowsH(rh[idx*k:(idx+1)*k], rRow, p.hs, k)
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
	return p.survivors(active[:0]), edges // reuse; phase 1/2 no longer read it
}

// gatherOne folds the active neighbors' messages into candidate v's
// residual row (phase 2 of a tracked round), re-norms it and appends v to
// next when it stays above tolerance.
func (p *PullPass) gatherOne(v int, rh []float64, next []int32) []int32 {
	k := p.k
	p.mark[v] = 0
	rRow := p.r.Data[v*k : (v+1)*k]
	cols, wts := p.w.Row(v)
	wts = RowWeights(cols, wts)
	// Every candidate neighbours an active node (W is symmetric), so the
	// loop adds at least once; the norm starts from the row's own, which
	// the pass keeps exact (zero for an active row, absorbed in phase 1).
	norm := p.nrm[v]
	for q, u := range cols {
		if idx := int(p.activeIdx[u]); idx >= 0 {
			norm = AddRowNorm(rRow, rh[idx*k:(idx+1)*k], wts[q])
		}
	}
	p.nrm[v] = norm
	if norm > p.tol {
		next = append(next, int32(v))
	}
	return next
}

// ExactRound is one whole-matrix Jacobi round on the pass's storage:
// F ← F + R, then the residual is recomputed from its definition,
// R ← X̃ + εW·F·H̃ − F, with norms and the survivor lists fused into the
// last pass; it returns the largest norm. Recomputing (instead of
// forwarding R ← εW·R·H̃) keeps the pair exact: sub-tolerance mass earlier
// rounds left behind is carried, not lost, so the result does not depend on
// the drain's history. Init's solve is this round repeated from F = X̃,
// R = 0. One SpMM between two branch-free flat parallel passes, no
// per-edge bookkeeping: the first pass folds R into F and forms F·H̃, which
// frees R to receive the product W·(F·H̃); the second turns it into
// X̃ + W·F·H̃ − F in place (foldRows, residualRows).
func (p *PullPass) ExactRound(x *dense.Matrix) float64 {
	mDenseRounds.Inc()
	if p.fh == nil {
		k := p.k
		p.fh = dense.New(p.n, k)
		p.chunkMax = make([]uint64, len(p.next))
		p.fold = func(lo, hi int) {
			foldRows(p.fh.Data[lo*k:hi*k], p.f.Data[lo*k:hi*k], p.r.Data[lo*k:hi*k], p.hs, k)
		}
		p.residual = func(c, lo, hi int) {
			p.next[c], p.chunkMax[c] = residualRows(p.r.Data[lo*k:hi*k], p.x.Data[lo*k:hi*k],
				p.f.Data[lo*k:hi*k], p.nrm[lo:hi], k, int32(lo), p.tol, p.next[c])
		}
	}
	p.x = x
	p.run.Rows(p.n, p.fold)
	p.w.MulDenseInto(p.r, p.fh)
	for c := range p.next {
		p.next[c] = p.next[c][:0] // chunks past n rows do not run
		p.chunkMax[c] = 0
	}
	p.run.RowsIndexed(p.n, p.residual)
	return math.Float64frombits(slices.Max(p.chunkMax))
}

// scatterRound is one round of the single-worker schedule: a Gauss–Seidel
// scan of the active list pushing straight into neighbor rows. mark doubles
// as the pending-or-queued flag (no atomics — the scan is sequential by
// design) and is left clean for whichever schedule runs next.
func (p *PullPass) scatterRound(active []int32, pushed, edges int) ([]int32, int, int) {
	k := p.k
	if cap(p.rh) < k {
		p.rh = make([]float64, k)
	}
	rh := p.rh[:k]
	p.scatterRounds++
	mRoundsScatter.Inc()
	r, f, nrm, mark, tol := p.r.Data, p.f.Data, p.nrm, p.mark, p.tol
	for _, v := range active {
		mark[v] = 1
	}
	next := p.candBuf[:0]
	for _, u32 := range active {
		u := int(u32)
		mark[u] = 0
		if nrm[u] <= tol {
			continue // absorbed earlier this round
		}
		rRow := r[u*k : (u+1)*k]
		fRow := f[u*k : (u+1)*k]
		MulRowsH(rh, rRow, p.hs, k)
		for j := 0; j < k; j++ {
			fRow[j] += rRow[j]
			rRow[j] = 0
		}
		nrm[u] = 0
		pushed++
		cols, wts := p.w.Row(u)
		edges += len(cols)
		scatterRow(r, nrm, k, cols, RowWeights(cols, wts), rh)
		for _, v := range cols {
			// Re-queue only nodes not still pending this round (their
			// later scan absorbs the fresh mass — that is the
			// Gauss–Seidel advantage) and not already queued for next.
			if nrm[v] > tol && mark[v] == 0 {
				mark[v] = 1
				next = append(next, v)
			}
		}
	}
	for _, v := range next {
		p.mark[v] = 0
	}
	p.candBuf = active
	return next, pushed, edges
}

// MulRowsH computes dst = src·H̃ for k-wide rows stored back to back (one
// row or a block of them) against a k×k row-major H̃ — the one copy of the
// product every schedule and solver runs. Up to k = 8 the row is loaded once
// into locals and H̃ read through a fixed-size array (no bounds checks in
// the lane loop); wider rows take four lanes at a time in register
// accumulators. Each lane sums in column order whatever k is, so every
// width agrees with the plain triple loop entry for entry. dst must not
// alias src.
func MulRowsH(dst, src, hs []float64, k int) {
	switch k {
	case 2:
		h00, h01, h10, h11 := hs[0], hs[1], hs[2], hs[3]
		for i := 0; i+2 <= len(src); i += 2 {
			a, b := src[i], src[i+1]
			dst[i], dst[i+1] = a*h00+b*h10, a*h01+b*h11
		}
	case 3:
		h00, h01, h02 := hs[0], hs[1], hs[2]
		h10, h11, h12 := hs[3], hs[4], hs[5]
		h20, h21, h22 := hs[6], hs[7], hs[8]
		for i := 0; i+3 <= len(src); i += 3 {
			a, b, c := src[i], src[i+1], src[i+2]
			dst[i], dst[i+1], dst[i+2] = a*h00+b*h10+c*h20, a*h01+b*h11+c*h21, a*h02+b*h12+c*h22
		}
	case 4:
		h := (*[16]float64)(hs)
		for i := 0; i+4 <= len(src); i += 4 {
			a, b, c, d := src[i], src[i+1], src[i+2], src[i+3]
			dst[i], dst[i+1] = a*h[0]+b*h[4]+c*h[8]+d*h[12], a*h[1]+b*h[5]+c*h[9]+d*h[13]
			dst[i+2], dst[i+3] = a*h[2]+b*h[6]+c*h[10]+d*h[14], a*h[3]+b*h[7]+c*h[11]+d*h[15]
		}
	case 5:
		h := (*[25]float64)(hs)
		for i := 0; i+5 <= len(src); i += 5 {
			s, d := (*[5]float64)(src[i:]), (*[5]float64)(dst[i:])
			s0, s1, s2, s3, s4 := s[0], s[1], s[2], s[3], s[4]
			for j := 0; j < 5; j++ {
				d[j] = s0*h[j] + s1*h[5+j] + s2*h[10+j] + s3*h[15+j] + s4*h[20+j]
			}
		}
	case 6:
		h := (*[36]float64)(hs)
		for i := 0; i+6 <= len(src); i += 6 {
			s, d := (*[6]float64)(src[i:]), (*[6]float64)(dst[i:])
			s0, s1, s2, s3, s4, s5 := s[0], s[1], s[2], s[3], s[4], s[5]
			for j := 0; j < 6; j++ {
				d[j] = s0*h[j] + s1*h[6+j] + s2*h[12+j] + s3*h[18+j] + s4*h[24+j] + s5*h[30+j]
			}
		}
	case 7:
		h := (*[49]float64)(hs)
		for i := 0; i+7 <= len(src); i += 7 {
			s, d := (*[7]float64)(src[i:]), (*[7]float64)(dst[i:])
			s0, s1, s2, s3, s4, s5, s6 := s[0], s[1], s[2], s[3], s[4], s[5], s[6]
			for j := 0; j < 7; j++ {
				d[j] = s0*h[j] + s1*h[7+j] + s2*h[14+j] + s3*h[21+j] + s4*h[28+j] + s5*h[35+j] + s6*h[42+j]
			}
		}
	case 8:
		h := (*[64]float64)(hs)
		for i := 0; i+8 <= len(src); i += 8 {
			s, d := (*[8]float64)(src[i:]), (*[8]float64)(dst[i:])
			s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
			for j := 0; j < 8; j++ {
				d[j] = s0*h[j] + s1*h[8+j] + s2*h[16+j] + s3*h[24+j] + s4*h[32+j] + s5*h[40+j] + s6*h[48+j] + s7*h[56+j]
			}
		}
	default:
		for i := 0; i+k <= len(src); i += k {
			row, out := src[i:i+k], dst[i:i+k]
			j := 0
			for ; j+4 <= k; j += 4 {
				var a0, a1, a2, a3 float64
				b := j
				for _, v := range row {
					h := hs[b : b+4 : b+4]
					a0 += v * h[0]
					a1 += v * h[1]
					a2 += v * h[2]
					a3 += v * h[3]
					b += k
				}
				o := out[j : j+4 : j+4]
				o[0], o[1], o[2], o[3] = a0, a1, a2, a3
			}
			for ; j < k; j++ {
				acc := 0.0
				for c, v := range row {
					acc += v * hs[c*k+j]
				}
				out[j] = acc
			}
		}
	}
}

// DenseRound computes wfh = W·(f·hScaled) — the dense matrix core the
// propagation solver iterates — and then invokes finish over row chunks in
// parallel. fh and wfh are caller scratch (n×k); finish fuses the solver's
// per-row update so each round is exactly three parallel passes over the
// data. The sparse multiply always runs on the full shared pool; the
// Runner's worker cap applies to the dense passes.
func (r Runner) DenseRound(w RowIterator, f, hScaled, fh, wfh *dense.Matrix, finish func(chunk, lo, hi int)) {
	mDenseRounds.Inc()
	k := hScaled.Cols
	r.Rows(f.Rows, func(lo, hi int) {
		MulRowsH(fh.Data[lo*k:hi*k], f.Data[lo*k:hi*k], hScaled.Data, k)
	})
	w.MulDenseInto(wfh, fh)
	r.RowsIndexed(w.Dim(), finish)
}
