package residual

import (
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
// A session has two tiers. A small patch stays in the sparse one: residual
// rows copy-on-write from the base's sparse map, belief rows clone on first
// touch, and the drain is the sequential exec.Drain heap loop. A patch whose
// frontier saturates, or whose pushes pass the edge budget, promotes to a
// private dense view: the base beliefs are cloned wholesale (O(n·k), far
// below a propagation's O(m·k·T)) and exec.PullPass runs rounds until the
// frontier is empty, pricing each one — tracked while the active rows own
// at most half of nnz(W), one exact whole-matrix round otherwise. Either
// way Flush converges; FellBack reports the decision "a whole-matrix round
// ran", not a failure.
//
// A Patch never mutates its base before Apply, so sessions that end in
// Abort may run concurrently with each other and with one that will be
// applied, as long as the base is not mutated meanwhile (the engine holds
// its read lock across a what-if session). The caller must serialize
// sessions it means to Apply against each other and Apply against every
// base access (the engine holds its patch mutex across such a session and
// its write lock across Apply). Exactly one Apply or Abort per patch: a
// session whose result is discarded must be Aborted so a promoted
// session's O(n·k) clones release eagerly.
type Patch struct {
	base *State

	xdel map[int32][]float64 // accumulated explicit-belief deltas

	// sparse copy-on-write tier
	rows          map[int32][]float64 // cloned belief rows
	res           map[int32][]float64 // patch residual rows (seeded from base rows)
	front         *exec.Frontier
	rowBuf, rhBuf []float64

	// private dense tier; non-nil once promoted
	df, dr *dense.Matrix
	dx     *dense.Matrix // cloned X̃ with deltas applied; built at the first whole-matrix round
	norms  []float64
	pull   *exec.PullPass

	// Trace, when set by the mutation path, records the flush tiers as
	// "residual.flush" / "exec.drain" / "exec.pull" spans.
	Trace *telemetry.Trace
}

// BeginPatch opens a patch session. If the base's dense residual tier is
// resident (a Rescale awaiting its drain), the session starts promoted so
// the retained residual is carried exactly.
func (s *State) BeginPatch() *Patch {
	p := &Patch{
		base:   s,
		xdel:   make(map[int32][]float64),
		rowBuf: make([]float64, s.k),
		rhBuf:  make([]float64, s.k),
	}
	if s.r != nil {
		p.df = s.f.Clone()
		p.dr = s.r.Clone()
		p.norms = append([]float64(nil), s.norms...)
		p.pull = exec.NewPullPass(s.w, s.hScaled, p.df, p.dr, p.norms, s.opts.Tol, s.run)
		return p
	}
	p.rows = make(map[int32][]float64)
	p.res = make(map[int32][]float64)
	p.front = exec.NewFrontier(s.opts.Tol, s.promoteAt)
	return p
}

// resRow returns the patch's residual row for node, seeding it from the
// base's retained row so sub-tolerance mass participates in the flush.
func (p *Patch) resRow(node int32) []float64 {
	row, ok := p.res[node]
	if !ok {
		if b, had := p.base.sRows[node]; had {
			row = append([]float64(nil), b...)
		} else {
			row = make([]float64, p.base.k)
		}
		p.res[node] = row
	}
	return row
}

// beliefRow returns the writable (cloned) belief row for node.
func (p *Patch) beliefRow(node int32) []float64 {
	row, ok := p.rows[node]
	if !ok {
		row = append([]float64(nil), p.base.f.Row(int(node))...)
		p.rows[node] = row
	}
	return row
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
	buf := make([]float64, s.k)
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
// cloned wholesale, base and patch residual rows fold into a dense array,
// and the sparse session storage is dropped.
func (p *Patch) promote() {
	mPromotions.Inc()
	s := p.base
	p.df = s.f.Clone()
	p.dr = dense.New(s.n, s.k)
	p.norms = make([]float64, s.n)
	for node, row := range s.sRows {
		copy(p.dr.Row(int(node)), row)
		p.norms[node] = exec.RowNorm(row)
	}
	for node, row := range p.res { // patch rows already include base content
		copy(p.dr.Row(int(node)), row)
		p.norms[node] = exec.RowNorm(row)
	}
	for node, row := range p.rows {
		copy(p.df.Row(int(node)), row)
	}
	p.rows, p.res = nil, nil
	p.front = nil
	p.pull = exec.NewPullPass(s.w, s.hScaled, p.df, p.dr, p.norms, s.opts.Tol, s.run)
}

// ensureDX materializes the patched explicit-belief matrix a whole-matrix
// round recomputes the residual from. The drain asks for it at the first
// such round, so a session that never runs one allocates nothing here.
func (p *Patch) ensureDX() *dense.Matrix {
	if p.dx == nil {
		p.dx = p.base.x.Clone()
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
// stored entries its active rows own (exec.PullPass.Drain).
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
	donePull := p.Trace.Start("exec.pull")
	pushed, edges, rounds, sweeps, remaining := p.pull.Drain(
		activeFromNorms(p.norms, s.opts.Tol), p.ensureDX, s.opts.MaxSweeps)
	donePull()
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
// propagation.
func (p *Patch) Apply() {
	s := p.base
	for node, d := range p.xdel {
		row := s.x.Row(int(node))
		for j, v := range d {
			row[j] += v
		}
	}
	if p.df != nil {
		s.f = p.df
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
		return
	}
	for node, row := range p.rows {
		copy(s.f.Row(int(node)), row)
	}
	for node, row := range p.res {
		if exec.RowNorm(row) > 0 {
			s.sRows[node] = row
		} else {
			delete(s.sRows, node)
		}
	}
	s.compact()
}

// Row returns node's belief row as the session sees it: the private matrix
// row once promoted, else the cloned row if the drain touched it, else the
// base's. The slice aliases session or base storage; treat it as read-only
// and do not retain it past the lock that protects the base.
func (p *Patch) Row(node int) []float64 {
	if p.df != nil {
		return p.df.Row(node)
	}
	if row, ok := p.rows[int32(node)]; ok {
		return row
	}
	return p.base.f.Row(node)
}

// OwnedRows reports the belief rows the session holds privately: a sparse
// session's copy-on-write clones, or every row of a promoted session's
// matrix. size is their count; rows (node → row) is nil when size exceeds
// max, so a promoted session on a large graph never materializes an
// n-entry map. The rows stay valid after Abort — the engine's what-if
// cache retains them.
func (p *Patch) OwnedRows(max int) (rows map[int32][]float64, size int) {
	size = len(p.rows)
	if p.df != nil {
		size = p.df.Rows
	}
	if size > max {
		return nil, size
	}
	if p.df == nil {
		return p.rows, size
	}
	rows = make(map[int32][]float64, size)
	for i := 0; i < size; i++ {
		rows[int32(i)] = p.df.Row(i)
	}
	return rows, size
}

// Abort ends the session without merging anything into the base: every
// session buffer — including a promoted session's O(n·k) belief/residual
// clones — is released eagerly rather than pinned until the session header
// itself is collected. The base is untouched (a Patch never writes it
// before Apply), so aborting a flushed session simply discards the flush.
// The session is dead afterwards; further use panics.
func (p *Patch) Abort() {
	p.base = nil
	p.xdel = nil
	p.rows, p.res, p.front = nil, nil, nil
	p.rowBuf, p.rhBuf = nil, nil
	p.df, p.dr, p.dx = nil, nil, nil
	p.norms, p.pull = nil, nil
}

// patchKernel is the copy-on-write push step of a sparse-tier patch.
type patchKernel struct{ p *Patch }

func (k patchKernel) Norm(node int32) float64 {
	if row, ok := k.p.res[node]; ok {
		return exec.RowNorm(row)
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
	copy(p.rowBuf, rRow)
	for j := 0; j < kk; j++ {
		rRow[j] = 0
	}
	exec.MulRowsH(p.rhBuf, p.rowBuf, base.hScaled.Data, kk)
	cols, wts := base.w.Row(int(node))
	wts = exec.RowWeights(cols, wts)
	for q, v := range cols {
		dirtied(v, exec.AddRowNorm(p.resRow(v), p.rhBuf, wts[q]))
	}
	return len(cols)
}
