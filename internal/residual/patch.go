package residual

import (
	"slices"

	"factorgraph/internal/dense"
	"factorgraph/internal/exec"
	"factorgraph/internal/telemetry"
)

// Patch is a copy-on-write flush session over a base State — the package's
// one drain. For a committed change the serving engine queues seed (or
// edge) deltas on it, flushes it OUTSIDE the engine write lock — readers
// keep serving the pre-patch beliefs from the untouched base meanwhile —
// and then applies the result under the write lock with Apply, which only
// swaps rows (or, for a promoted patch, whole matrices). That is the
// narrow-locking contract: propagation-scale work never runs under a lock
// readers contend on. A what-if query is the same session with a different
// ending: it reads its answer through Row and Aborts, so nothing it
// computed ever reaches the base.
//
// A session has two tiers. A small patch stays in the sparse one: each
// node it touches gets a slot (an n-sized node→slot table), its residual
// row is copied into a packed slab from the base's sparse map, its belief
// row is cloned into a second slab on first push, and the drain is the
// sequential exec.Drain heap loop. A patch whose frontier saturates, or
// whose pushes pass the edge budget, promotes to a private dense view: the
// base beliefs are copied wholesale (O(n·k), far below a propagation's
// O(m·k·T)) and exec.Pass runs rounds until the
// frontier is empty, pricing each one — a sequential scatter while the
// active rows own at most half of nnz(W), one exact whole-matrix round
// otherwise. Either way Flush converges; FellBack reports the decision "a
// whole-matrix round ran", not a failure.
//
// A Patch never mutates its base before Apply, so sessions that end in
// Abort may run concurrently with each other and with one that will be
// applied, as long as the base is not mutated meanwhile (the engine holds
// its read lock across a what-if session). The caller must serialize
// sessions it means to Apply against each other and Apply against every
// base access (the engine holds its patch mutex across such a session and
// its write lock across Apply). Exactly one Apply or Abort per patch: both
// return the session's scratch to the State's pool, so a session whose
// result is discarded must be Aborted for the next one to reuse it.
type Patch struct {
	base *State
	sc   *scratch

	xdel map[int32][]float64 // accumulated explicit-belief deltas

	// sparse copy-on-write tier: non-nil while the session is on it. Its
	// rows live in sc, addressed through sc.slot.
	front  *exec.Frontier
	cloned int // belief rows cloned so far

	// private dense tier, in sc's buffers; non-nil once promoted
	df, dr *dense.Matrix
	dx     *dense.Matrix // cloned X̃ with deltas applied; built at the first whole-matrix round
	norms  []float64
	pass   *exec.Pass

	// Trace, when set by the mutation path, records the flush tiers as
	// "residual.flush" / "exec.drain" / "exec.rounds" spans.
	Trace *telemetry.Trace
}

// scratch is the storage a session borrows from its State's pool and
// returns at Apply or Abort: the sparse tier's slot table, membership
// flags, packed row slabs and frontier, and the promoted tier's n×k
// matrices, norm table and pass scratch. A sparse session leaves the slot
// table and flags clear by walking its touched list, so its cleanup costs
// what it touched; the dense buffers are cleared or overwritten where a
// session takes them (BeginPatch, promote, ensureDX). Pooled scratch is
// not resident state: the pool empties within two collections, and
// MemoryBytes does not count it.
type scratch struct {
	n, k int

	// sparse tier; the tables are n long, built on first use
	slot    []int32 // node → 1 + its slot, 0 = untouched
	inq     []bool  // the frontier's membership flags
	front   *exec.Frontier
	touched []int32   // slot → node, in first-touch order
	res     []float64 // slot → residual row, k apiece, seeded from the base's retained row
	bel     []float64 // slot → cloned belief row, k apiece, valid where owned
	owned   []bool    // slot → its belief row is cloned

	// freeRows holds base residual rows an Apply deleted (drained to zero,
	// or dropped by compaction), for a later Apply to store new rows in.
	freeRows [][]float64

	// rowBuf stages one row (a pushed residual, an edge delta); rhBuf holds
	// its ·H̃ product.
	rowBuf, rhBuf []float64

	// promoted tier, built on first use
	df, dr, dx *dense.Matrix
	norms      []float64
	pass       exec.PassScratch
}

// matrix returns *m, one of the scratch's n×k matrices, building it on
// first use. It holds whatever the last session left in it.
func (sc *scratch) matrix(m **dense.Matrix) *dense.Matrix {
	if *m == nil {
		*m = dense.New(sc.n, sc.k)
	}
	return *m
}

// normTable returns the scratch's n-long norm table; its contents are
// whatever the last session left in it.
func (sc *scratch) normTable() []float64 {
	if sc.norms == nil {
		sc.norms = make([]float64, sc.n)
	}
	return sc.norms
}

// retain returns a copy of row for the base's sparse tier, in a row an
// earlier Apply freed when there is one.
func (sc *scratch) retain(row []float64) []float64 {
	last := len(sc.freeRows) - 1
	if last < 0 {
		return append([]float64(nil), row...)
	}
	b := sc.freeRows[last]
	sc.freeRows = sc.freeRows[:last]
	copy(b, row)
	return b
}

// borrow takes a scratch sized for the state from its pool, or builds one.
func (s *State) borrow() *scratch {
	if sc, _ := s.pool.Get().(*scratch); sc != nil && sc.n == s.n {
		return sc
	}
	return &scratch{n: s.n, k: s.k, rowBuf: make([]float64, s.k), rhBuf: make([]float64, s.k)}
}

// BeginPatch opens a patch session. If the base's dense residual tier is
// resident (a Rescale awaiting its drain), the session starts promoted so
// the retained residual is carried exactly.
func (s *State) BeginPatch() *Patch {
	sc := s.borrow()
	p := &Patch{base: s, sc: sc, xdel: make(map[int32][]float64)}
	if s.r != nil {
		p.df = sc.matrix(&sc.df)
		p.df.CopyFrom(s.f)
		p.dr = sc.matrix(&sc.dr)
		p.dr.CopyFrom(s.r)
		p.norms = sc.normTable()
		copy(p.norms, s.norms)
		p.pass = exec.NewPass(s.w, s.hScaled, p.df, p.dr, p.norms, s.opts.Tol, exec.Runner{}, &sc.pass)
		return p
	}
	if sc.slot == nil {
		sc.slot = make([]int32, s.n)
		sc.inq = make([]bool, s.n)
	}
	if sc.front == nil {
		sc.front = exec.NewFrontier(s.opts.Tol, s.promoteAt, sc.inq)
	}
	p.front = sc.front
	return p
}

// slotOf returns node's slot, giving it one on first touch: its residual
// row is seeded from the base's retained row, so sub-tolerance mass
// participates in the flush. A new slot may move the slabs, so a row
// slice taken before it is stale after it.
func (p *Patch) slotOf(node int32) int {
	sc := p.sc
	if s := sc.slot[node]; s != 0 {
		return int(s) - 1
	}
	i, k := len(sc.touched), p.base.k
	sc.touched = append(sc.touched, node)
	sc.slot[node] = int32(len(sc.touched))
	sc.res = slices.Grow(sc.res, k)[:(i+1)*k]
	if b, had := p.base.sRows[node]; had {
		copy(sc.res[i*k:], b)
	} else {
		clear(sc.res[i*k:])
	}
	sc.bel = slices.Grow(sc.bel, k)[:(i+1)*k]
	sc.owned = append(sc.owned, false)
	return i
}

// resRow returns the session's residual row for node.
func (p *Patch) resRow(node int32) []float64 {
	i, k := p.slotOf(node), p.base.k
	return p.sc.res[i*k : (i+1)*k]
}

// beliefRow returns the writable (cloned) belief row for node.
func (p *Patch) beliefRow(node int32) []float64 {
	sc, k := p.sc, p.base.k
	i := p.slotOf(node)
	row := sc.bel[i*k : (i+1)*k]
	if !sc.owned[i] {
		copy(row, p.base.f.Row(int(node)))
		sc.owned[i] = true
		p.cloned++
	}
	return row
}

// dropSparse ends the sparse tier: the slot table and membership flags are
// cleared at every touched node (every queued node is one), and the slabs
// are emptied. The frontier is empty after any drain; one left with nodes
// queued (the session ended unflushed) is dropped rather than reused.
func (p *Patch) dropSparse() {
	sc := p.sc
	for _, node := range sc.touched {
		sc.slot[node] = 0
		sc.inq[node] = false
	}
	sc.touched, sc.res, sc.bel, sc.owned = sc.touched[:0], sc.res[:0], sc.bel[:0], sc.owned[:0]
	if p.front.Len() > 0 {
		sc.front = nil
	}
	p.front = nil
}

// release ends the session: its scratch goes back to the base's pool and
// the session is dead (further use panics).
func (p *Patch) release() {
	if p.front != nil {
		p.dropSparse()
	}
	p.base.pool.Put(p.sc)
	p.base, p.sc, p.xdel = nil, nil, nil
	p.df, p.dr, p.dx, p.norms, p.pass = nil, nil, nil, nil, nil
}

// AddDelta queues an explicit-belief change (newXRow − oldXRow, uncentered
// space) for node. The base is untouched; X̃ catches up at Apply.
func (p *Patch) AddDelta(node int, delta []float64) {
	d, ok := p.xdel[int32(node)]
	if !ok {
		d = make([]float64, p.base.k)
		p.xdel[int32(node)] = d
	}
	for j, v := range delta {
		d[j] += v
	}
	if p.df != nil {
		rRow := p.dr.Row(node)
		for j, v := range delta {
			rRow[j] += v
		}
		p.norms[node] = exec.RowNorm(rRow)
		return
	}
	row := p.resRow(int32(node))
	for j, v := range delta {
		row[j] += v
	}
	p.front.Add(int32(node), exec.RowNorm(row))
}

// AddResidual queues a raw residual delta for node — no explicit-belief
// change. The topology-mutation path lands edge perturbations here: an
// edge-weight change modifies A·F, not X̃, so only R moves.
func (p *Patch) AddResidual(node int, delta []float64) {
	if p.df != nil {
		rRow := p.dr.Row(node)
		for j, v := range delta {
			rRow[j] += v
		}
		p.norms[node] = exec.RowNorm(rRow)
		return
	}
	row := p.resRow(int32(node))
	for j, v := range delta {
		row[j] += v
	}
	p.front.Add(int32(node), exec.RowNorm(row))
}

// AddEdgeDelta seeds the residual perturbation of an edge-weight change on
// the undirected edge (u, v): with ΔW carrying dw at (u,v) and (v,u), the
// residual invariant R = X̃ + εW F H̃ − F shifts by ΔR = ε·ΔW·F·H̃ — i.e.
// dw·(F_v·H̃ε) lands on row u and dw·(F_u·H̃ε) on row v (a single diagonal
// term when u == v). F here is the base's pre-flush beliefs, exactly the F
// the invariant holds for. The caller must have already swapped the
// mutated adjacency into the base (State.SetAdj) so the flush drains
// against the new topology.
func (p *Patch) AddEdgeDelta(u, v int, dw float64) {
	s := p.base
	buf := p.sc.rowBuf
	exec.MulRowsH(buf, s.f.Row(v), s.hScaled.Data, s.k)
	for j := range buf {
		buf[j] *= dw
	}
	p.AddResidual(u, buf)
	if u == v {
		return
	}
	exec.MulRowsH(buf, s.f.Row(u), s.hScaled.Data, s.k)
	for j := range buf {
		buf[j] *= dw
	}
	p.AddResidual(v, buf)
}

// promote switches the session to its private dense view: base beliefs are
// copied wholesale into the scratch's belief matrix, base and session
// residual rows fold into its cleared residual matrix, and the sparse tier
// is cleaned and dropped.
func (p *Patch) promote() {
	mPromotions.Inc()
	s, sc, k := p.base, p.sc, p.base.k
	p.df = sc.matrix(&sc.df)
	p.df.CopyFrom(s.f)
	p.dr = sc.matrix(&sc.dr)
	clear(p.dr.Data)
	p.norms = sc.normTable()
	clear(p.norms)
	for node, row := range s.sRows {
		copy(p.dr.Row(int(node)), row)
		p.norms[node] = exec.RowNorm(row)
	}
	for i, node := range sc.touched { // session rows already include base content
		row := sc.res[i*k : (i+1)*k]
		copy(p.dr.Row(int(node)), row)
		p.norms[node] = exec.RowNorm(row)
		if sc.owned[i] {
			copy(p.df.Row(int(node)), sc.bel[i*k:(i+1)*k])
		}
	}
	p.dropSparse()
	p.pass = exec.NewPass(s.w, s.hScaled, p.df, p.dr, p.norms, s.opts.Tol, exec.Runner{}, &sc.pass)
}

// ensureDX materializes the patched explicit-belief matrix a whole-matrix
// round recomputes the residual from. The drain asks for it at the first
// such round, so a session that never runs one touches no X̃ copy.
func (p *Patch) ensureDX() *dense.Matrix {
	if p.dx == nil {
		p.dx = p.sc.matrix(&p.sc.dx)
		p.dx.CopyFrom(p.base.x)
		for node, d := range p.xdel {
			row := p.dx.Row(int(node))
			for j, v := range d {
				row[j] += v
			}
		}
	}
	return p.dx
}

// Flush drains the queued deltas to the base's tolerance in two tiers. The
// sparse-tier heap drain runs until it drains, saturates or passes the edge
// budget; the last two both promote. The promoted tier then runs rounds
// until the frontier is empty, under no edge budget, each priced by the
// stored entries its active rows own (exec.Pass.Drain).
// Stats.Sweeps counts the whole-matrix rounds, FellBack reports that one
// ran, and only Options.MaxSweeps of them can leave MaxResidual above the
// tolerance. Safe to call with concurrent readers on the base.
func (p *Patch) Flush() Stats {
	s := p.base
	var st Stats
	defer func() { recordStats(st) }()
	doneFlush := p.Trace.Start("residual.flush")
	defer doneFlush()
	if p.df == nil {
		var outcome exec.DrainOutcome
		st.Pushed, st.Edges, outcome = exec.DrainTraced(p.Trace, p.front, patchKernel{p}, s.edgeBudget)
		if outcome == exec.Drained {
			return st
		}
		p.promote()
	}
	doneRounds := p.Trace.Start("exec.rounds")
	pushed, edges, rounds, sweeps, remaining := p.pass.Drain(
		p.pass.Dirty(), p.ensureDX, s.opts.MaxSweeps)
	doneRounds()
	st.Pushed += pushed
	st.Edges += edges
	st.Rounds, st.Sweeps, st.FellBack = rounds, sweeps, sweeps > 0
	for _, v := range remaining {
		if p.norms[v] > st.MaxResidual {
			st.MaxResidual = p.norms[v]
		}
	}
	return st
}

// Apply merges the flushed session into the base. The caller must hold the
// lock that excludes every base reader and mutator; the work here is row
// copies for a sparse patch and pointer swaps for a promoted one — never
// propagation. A promoted session's belief matrix becomes the base's, and
// the superseded one goes back to the pool with the session's scratch,
// for a later promotion to overwrite (see State.Beliefs).
func (p *Patch) Apply() {
	s := p.base
	for node, d := range p.xdel {
		row := s.x.Row(int(node))
		for j, v := range d {
			row[j] += v
		}
	}
	if p.df != nil {
		s.f, p.sc.df = p.df, s.f
		// The private dense residual supersedes whatever tier the base
		// held; carry still-dirty rows (after a clean drain there are none)
		// into a fresh sparse tier and drop the rest — the same
		// Tol-bounded discard as a demotion.
		s.r, s.norms = nil, nil
		s.sRows = make(map[int32][]float64)
		dropped := 0.0
		for i, norm := range p.norms {
			if norm > s.opts.Tol {
				s.sRows[int32(i)] = append([]float64(nil), p.dr.Row(i)...)
			} else if norm > 0 {
				dropped += norm
			}
		}
		s.addDropped(dropped)
		p.release()
		return
	}
	sc, k := p.sc, s.k
	for i, node := range sc.touched {
		if sc.owned[i] {
			copy(s.f.Row(int(node)), sc.bel[i*k:(i+1)*k])
		}
		row := sc.res[i*k : (i+1)*k]
		b, had := s.sRows[node]
		switch {
		case exec.RowNorm(row) == 0:
			if had {
				delete(s.sRows, node)
				sc.freeRows = append(sc.freeRows, b)
			}
		case had:
			copy(b, row)
		default:
			s.sRows[node] = sc.retain(row)
		}
	}
	sc.freeRows = s.compact(sc.freeRows)
	p.release()
}

// Row returns node's belief row as the session sees it: the private matrix
// row once promoted, else the cloned row if the drain touched it, else the
// base's. The slice aliases session or base storage; treat it as read-only
// and do not retain it past the session's Abort or the lock that protects
// the base.
func (p *Patch) Row(node int) []float64 {
	if p.df != nil {
		return p.df.Row(node)
	}
	sc, k := p.sc, p.base.k
	if s := sc.slot[node]; s != 0 && sc.owned[s-1] {
		return sc.bel[int(s-1)*k : int(s)*k]
	}
	return p.base.f.Row(node)
}

// OwnedRows reports how many belief rows the session holds privately: a
// sparse session's copy-on-write clones, or every row of a promoted
// session's matrix.
func (p *Patch) OwnedRows() int {
	if p.df != nil {
		return p.df.Rows
	}
	return p.cloned
}

// Abort ends the session without merging anything into the base: its
// scratch — including a promoted session's n×k belief and residual
// matrices — goes back to the pool at once rather than being pinned until
// the session header itself is collected. The base is untouched (a Patch
// never writes it before Apply), so aborting a flushed session simply
// discards the flush. The session is dead afterwards; further use panics.
func (p *Patch) Abort() {
	p.release()
}

// patchKernel is the copy-on-write push step of a sparse-tier patch.
type patchKernel struct{ p *Patch }

func (k patchKernel) Norm(node int32) float64 {
	if s := k.p.sc.slot[node]; s != 0 {
		kk := k.p.base.k
		return exec.RowNorm(k.p.sc.res[int(s-1)*kk : int(s)*kk])
	}
	return exec.RowNorm(k.p.base.sRows[node])
}

func (k patchKernel) Push(node int32, dirtied func(int32, float64)) int {
	p := k.p
	base := p.base
	kk := base.k
	rRow := p.resRow(node)
	fRow := p.beliefRow(node)
	for j := 0; j < kk; j++ {
		fRow[j] += rRow[j]
	}
	rowBuf, rhBuf := p.sc.rowBuf, p.sc.rhBuf
	copy(rowBuf, rRow)
	for j := 0; j < kk; j++ {
		rRow[j] = 0
	}
	exec.MulRowsH(rhBuf, rowBuf, base.hScaled.Data, kk)
	cols, wts := base.w.Row(int(node))
	wts = exec.RowWeights(cols, wts)
	for q, v := range cols {
		dirtied(v, exec.AddRowNorm(p.resRow(v), rhBuf, wts[q]))
	}
	return len(cols)
}
