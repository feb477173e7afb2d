package exec

import (
	"math"
	"slices"

	"factorgraph/internal/dense"
)

// DeltaDivisor prices a round: while the active rows own at most
// nnz(W)/DeltaDivisor stored entries the round tracks them, past that it is
// one whole-matrix round (ExactRound) on the branch-free CSR multiply
// kernel — a fraction of a tracked round's per-edge cost, and at that
// density nearly every row neighbors the frontier anyway. 2, not the ~5 the
// per-edge cost ratio alone suggests: Gauss–Seidel scatter converges in
// fewer rounds than Jacobi sweeps, and an edge-mutation batch's ~0.4·nnz
// middle round must stay tracked.
const DeltaDivisor = 2

// Pass drains a saturated frontier with level-synchronous rounds over
// dense residual storage, pricing every round before it runs (see Drain).
// The adjacency is accessed through the RowIterator abstraction, so the
// same pass drains a frozen CSR matrix and a mutable delta overlay alike.
//
// A tracked round is a sequential Gauss–Seidel scatter scan of the active
// list: each active node pushes straight into its neighbors' rows, with
// mass forwarded within the round. A whole-matrix round (ExactRound) runs
// its flat passes and its SpMM on the worker pool, row by row, so no sum
// depends on the chunking: a drain leaves the same bits at every worker
// count.
type Pass struct {
	w   RowIterator
	n   int
	hs  []float64 // k×k, row-major, ε-scaled
	k   int
	f   *dense.Matrix
	r   *dense.Matrix
	nrm []float64
	tol float64
	run Runner
	sc  *PassScratch

	// divisor is DeltaDivisor; tests sweep others.
	divisor int

	mark   []uint8 // scatter: pending-or-queued flags, 0 or 1
	rh     []float64
	spare  []int32 // scatter: the list the next round fills
	rowLen []int32 // pricing: stored entries per row, 0 = not read yet

	// Whole-matrix round scratch: F·H̃ (the per-chunk survivor lists and
	// max norm bits are in sc), the round's X̃, and the two flat passes
	// bound once (a closure per round would be an allocation per round).
	fh       *dense.Matrix
	x        *dense.Matrix
	fold     func(lo, hi int)
	residual func(chunk, lo, hi int)

	// deltaRounds / scatterRounds count which kind each round of this pass
	// ran (delta = whole-matrix); the pricing tests pin the
	// nnz/DeltaDivisor threshold on them.
	deltaRounds, scatterRounds int
}

// PassScratch is the working storage a Pass borrows: the n-sized mark
// flags (bytes, 0 or 1, so the scatter round's re-queue is arithmetic),
// row-length table and F·H̃, the two active lists (the scatter round gives
// each room for n+1 entries), and the whole-matrix round's per-chunk
// survivor lists and max norm bits. A caller that runs many passes over
// graphs of one size lends one scratch to each in turn — never to two live
// passes at once — so a warm pass allocates none of it; a pass built with
// a nil scratch gets its own. Each buffer reaches the pass in the state
// the pass expects (flags clear, lengths zero), whatever an earlier pass
// left in it.
type PassScratch struct {
	mark         []uint8
	rowLen       []int32
	fh           *dense.Matrix
	active, more []int32
	next         [][]int32
	chunkMax     []uint64
}

// NewPass builds a pass over dense (f, r, norms) storage, borrowing its
// n-sized scratch (the mark flags here; the row-length table and F·H̃ on
// first use) from sc, or from a scratch of its own when sc is nil. norms
// must reflect r (∞-norm per row); the pass maintains it.
func NewPass(w RowIterator, hScaled, f, r *dense.Matrix, norms []float64, tol float64, run Runner, sc *PassScratch) *Pass {
	n := w.Dim()
	if sc == nil {
		sc = new(PassScratch)
	}
	if len(sc.mark) == n {
		clear(sc.mark)
	} else {
		sc.mark = make([]uint8, n)
	}
	return &Pass{
		w: w, n: n, hs: hScaled.Data, k: hScaled.Rows,
		f: f, r: r, nrm: norms, tol: tol, run: run, sc: sc,
		divisor: DeltaDivisor,
		mark:    sc.mark,
		spare:   sc.more[:0],
	}
}

// Dirty lists every row whose norm exceeds the tolerance, in ascending
// order, in the scratch's list storage: the active list a drain of the
// pass's whole norm table starts from.
func (p *Pass) Dirty() []int32 {
	active := p.sc.active[:0]
	for i, norm := range p.nrm {
		if norm > p.tol {
			active = append(active, int32(i))
		}
	}
	return active
}

// Drain runs rounds until the frontier empties, pricing each one by the
// stored entries its active rows own: at most nnz(W)/DeltaDivisor and the
// round is a tracked scatter, past that it is one whole-matrix ExactRound.
// x supplies X̃ and is called at most once, before the first whole-matrix
// round; maxSweeps > 0 caps those rounds so a drain terminates even where
// contraction is lost, returning the still-dirty frontier (norms exact for
// it). stop, when non-nil, is asked after every whole-matrix round that
// leaves rows dirty — never after a tracked one, whose residual is carried
// rather than recomputed — and a true answer ends the drain there with the
// dirty frontier returned the same way. remaining is nil on a clean drain.
// pushed counts the above-tolerance rows every round absorbed; edges counts
// the entries tracked rounds traversed one at a time — each of the sweeps
// whole-matrix rounds reads all nnz(W) on the multiply kernel instead. The
// pass owns active afterwards, and its scratch keeps both lists' storage
// for the next pass (remaining stays valid until that pass starts).
func (p *Pass) Drain(active []int32, x func() *dense.Matrix, maxSweeps int, stop func() bool) (pushed, edges, rounds, sweeps int, remaining []int32) {
	defer func() { p.sc.active, p.sc.more = active[:0], p.spare[:0] }()
	var xm *dense.Matrix
	for ; len(active) > 0; rounds++ {
		if p.tracked(active) {
			active, pushed, edges = p.scatterRound(active, pushed, edges)
			continue
		}
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
		if stop != nil && len(active) > 0 && stop() {
			return pushed, edges, rounds + 1, sweeps, active
		}
	}
	return pushed, edges, rounds, sweeps, nil
}

// tracked prices the next round: it reports whether the active rows own at
// most nnz(W)/DeltaDivisor stored entries. A row's count comes from Row
// once per pass, from rowLen after that (an empty row is asked again).
func (p *Pass) tracked(active []int32) bool {
	if p.rowLen == nil {
		if len(p.sc.rowLen) == p.n {
			clear(p.sc.rowLen)
		} else {
			p.sc.rowLen = make([]int32, p.n)
		}
		p.rowLen = p.sc.rowLen
	}
	limit := p.w.NNZ() / p.divisor
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

// survivors appends the per-chunk survivor lists of the last whole-matrix
// round, in chunk order — ascending node order, whatever the chunking.
func (p *Pass) survivors(into []int32) []int32 {
	for c := range p.sc.next {
		into = append(into, p.sc.next[c]...)
	}
	return into
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
//
// The chunk count is read once per round and the per-chunk scratch grown
// to it, so a GOMAXPROCS rise between rounds only widens the next one.
func (p *Pass) ExactRound(x *dense.Matrix) float64 {
	mDenseRounds.Inc()
	k := p.k
	if p.fh == nil {
		if p.sc.fh == nil || p.sc.fh.Rows != p.n || p.sc.fh.Cols != k {
			p.sc.fh = dense.New(p.n, k)
		}
		p.fh = p.sc.fh
		p.fold = func(lo, hi int) {
			foldRows(p.fh.Data[lo*k:hi*k], p.f.Data[lo*k:hi*k], p.r.Data[lo*k:hi*k], p.hs, k)
		}
		p.residual = func(c, lo, hi int) {
			p.sc.next[c], p.sc.chunkMax[c] = residualRows(p.r.Data[lo*k:hi*k], p.x.Data[lo*k:hi*k],
				p.f.Data[lo*k:hi*k], p.nrm[lo:hi], k, int32(lo), p.tol, p.sc.next[c])
		}
	}
	chunks := p.run.MaxChunks()
	if len(p.sc.next) < chunks {
		p.sc.next = append(p.sc.next, make([][]int32, chunks-len(p.sc.next))...)
		p.sc.chunkMax = make([]uint64, chunks)
	}
	p.x = x
	p.run.Rows(p.n, p.fold)
	p.w.MulDenseInto(p.r, p.fh)
	for c := range p.sc.next {
		p.sc.next[c] = p.sc.next[c][:0] // chunks past n rows do not run
		p.sc.chunkMax[c] = 0
	}
	p.run.RowsIndexed(p.n, chunks, p.residual)
	return math.Float64frombits(slices.Max(p.sc.chunkMax))
}

// scatterRound is one tracked round: a Gauss–Seidel scan of the active
// list pushing straight into neighbor rows. mark is the pending-or-queued
// flag and is left clean for the next round.
//
// The re-queue has no data-dependent branch: every neighbor is written at
// the end of next, and the length advances by the 0/1 test "norm over tol
// and not marked", which is ORed into the mark too. A node is kept exactly
// where the compare-and-append would have appended it, so next holds the
// same nodes in the same order. Its write past the kept entries needs one
// spare slot, so next has room for n+1: at most n nodes are ever kept.
func (p *Pass) scatterRound(active []int32, pushed, edges int) ([]int32, int, int) {
	k := p.k
	if cap(p.rh) < k {
		p.rh = make([]float64, k)
	}
	rh := p.rh[:k]
	p.scatterRounds++
	mRoundsScatter.Inc()
	r, f, nrm, tol := p.r.Data, p.f.Data, p.nrm, p.tol
	mark := p.mark[:len(nrm)] // one bounds check per edge covers both
	for _, v := range active {
		mark[v] = 1
	}
	next := p.spare[:cap(p.spare)] // the caller's first list may be short
	if len(next) <= p.n {
		next = make([]int32, p.n+1)
	}
	queued := 0
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
		// Re-queue only nodes not still pending this round (their later
		// scan absorbs the fresh mass — that is the Gauss–Seidel
		// advantage) and not already queued for next.
		for _, v := range cols {
			m := mark[v]
			add := over(nrm[v], tol) &^ m
			next[queued] = v
			queued += int(add)
			mark[v] = m | add
		}
	}
	next = next[:queued]
	for _, v := range next {
		mark[v] = 0
	}
	p.spare = active
	return next, pushed, edges
}

// over is 1 when norm > tol and 0 otherwise; the compiler turns it into a
// flag set, not a jump.
func over(norm, tol float64) uint8 {
	var b uint8
	if norm > tol {
		b = 1
	}
	return b
}

// MulRowsH computes dst = src·H̃ for k-wide rows stored back to back (one
// row or a block of them) against a k×k row-major H̃ — the one copy of the
// product every round of both solvers runs, and every k×k product of the
// DCE estimator's energy and gradient (k rows against a k×k right factor).
// Up to k = 8 the row is loaded once
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

// FoldRound is one round of the propagation solver, which keeps
// G = F − X̃ instead of F (X̃ = x − c, c = 1/k when centred and 0
// otherwise): one flat pass forms fh = ((x − c) + g)·H̃, the F·H̃ of
// F = X̃ + G, then the SpMM writes W·fh straight into g. The caller adds
// X̃ once after its last round. The sparse multiply always runs on the
// full shared pool; the Runner's worker cap applies to the flat pass.
func (r Runner) FoldRound(w RowIterator, x, g, fh, hScaled *dense.Matrix, c float64) {
	mDenseRounds.Inc()
	k := hScaled.Cols
	r.Rows(g.Rows, func(lo, hi int) {
		foldXRows(fh.Data[lo*k:hi*k], x.Data[lo*k:hi*k], g.Data[lo*k:hi*k], hScaled.Data, c, k)
	})
	w.MulDenseInto(g, fh)
}

// foldXRows is FoldRound's flat pass over k-wide rows stored back to back:
// fh = ((x − c) + g)·H̃ with MulRowsH's arithmetic, g and x unchanged.
// k = 3 and k = 5 have fixed-width arms doing both in one sweep; every
// other width forms a block of rows on the stack, then runs MulRowsH on
// it. All leave the same bits. fh must not alias x or g.
func foldXRows(fh, x, g, hs []float64, c float64, k int) {
	x, fh = x[:len(g)], fh[:len(g)]
	switch k {
	case 3:
		h := (*[9]float64)(hs)
		for j := 0; j+3 <= len(g); j += 3 {
			a, b, d := (x[j]-c)+g[j], (x[j+1]-c)+g[j+1], (x[j+2]-c)+g[j+2]
			fh[j], fh[j+1], fh[j+2] = a*h[0]+b*h[3]+d*h[6], a*h[1]+b*h[4]+d*h[7], a*h[2]+b*h[5]+d*h[8]
		}
	case 5:
		h := (*[25]float64)(hs)
		for j := 0; j+5 <= len(g); j += 5 {
			xs, gs, d := (*[5]float64)(x[j:]), (*[5]float64)(g[j:]), (*[5]float64)(fh[j:])
			s0, s1, s2, s3, s4 := (xs[0]-c)+gs[0], (xs[1]-c)+gs[1], (xs[2]-c)+gs[2], (xs[3]-c)+gs[3], (xs[4]-c)+gs[4]
			for i := 0; i < 5; i++ {
				d[i] = s0*h[i] + s1*h[5+i] + s2*h[10+i] + s3*h[15+i] + s4*h[20+i]
			}
		}
	default:
		var stack [128]float64
		blk := stack[:]
		if k > len(stack) {
			blk = make([]float64, k)
		}
		blk = blk[:len(blk)/k*k]
		for lo := 0; lo < len(g); lo += len(blk) {
			hi := min(lo+len(blk), len(g))
			f := blk[:hi-lo]
			for i := range f {
				f[i] = (x[lo+i] - c) + g[lo+i]
			}
			MulRowsH(fh[lo:hi], f, hs, k)
		}
	}
}
