// Package residual implements push-based (Gauss–Southwell-style) residual
// propagation for LinBP: an incremental solver for the fixed point
//
//	F* = X̃ + εW F* H̃
//
// that the dense iteration of internal/propagation approaches one full
// sweep at a time. The State keeps the current belief matrix F, the
// explicit-belief matrix X̃ and a per-node residual R with the invariant
//
//	F* = F + (I − A)⁻¹ R,   A·M := εW M H̃,
//
// so beliefs are exact up to the residual mass still queued. Every change
// after Init — seed labels, edge weights, a new ε — lands as a sparse delta
// in the residual of a Patch, the one copy-on-write drain session over the
// State: Patch.Flush pushes residual rows whose ∞-norm exceeds the
// tolerance to their neighbors, largest first, touching only the perturbed
// neighborhood instead of re-running O(m·k·iters) over the whole graph.
// Because ε is chosen so that ρ(A) = s < 1 (Eq. 2 of the paper), pushed
// mass contracts geometrically from any start and the loop terminates.
//
// Scheduling lives in internal/exec and has two tiers. A small frontier
// drains through exec.Drain — the sequential priority-queue push loop — over
// the session's slot-indexed rows: an n-sized node→slot table, packed
// residual and belief slabs and a touched list, seeded from the State's
// sparse map of retained rows. Once the
// frontier saturates (a load-factor threshold) or the pushes pass the edge
// budget, the session promotes to private dense arrays and exec.Pass runs
// level-synchronous rounds until the frontier is empty, pricing every round
// by the stored entries its active rows own: a sequential Gauss–Seidel
// scatter while that is at most half of nnz(W), otherwise one exact
// whole-matrix round F ← F + R, R ← X̃ + εW·F·H̃ − F on the CSR multiply
// kernel. Neither kind of round depends on the worker count, so a replayed
// request sequence gives the same bits on any host. A flush therefore costs
// what its perturbation touches, round by round, instead of a budget burnt
// before looking. The dense tier lives and dies with the session, so an
// idle State holds two n×k matrices (X̃ and F), not five — the sparse tier
// is what keeps a quiescent engine's footprint small. Every buffer a
// session borrows — slot table, flags, slabs, frontier, the dense tier's
// matrices and the pass scratch — comes from a per-State sync.Pool and
// goes back at Apply or Abort, so a warm session allocates O(1) objects
// and no n×k matrix. Pooled scratch is not resident state: the pool
// empties within two collections and MemoryBytes does not count it.
//
// Applying a session discards residual mass at or below the tolerance
// (retaining it would keep a dense array alive). Each discard perturbs the
// fixed point by at most Tol·s/(1−s) per node, and the sparse tier's
// compaction applies the same bound; DefaultTol keeps the cumulative drift
// of any realistic patch sequence orders of magnitude inside the 1e-6
// agreement budget the parity tests enforce.
//
// The one session type serves two layers above:
//
//   - committed changes (PATCH /labels, edge mutations, the ε rescale of a
//     compaction) flush on a Patch outside the serving Engine's locks and
//     end in Apply, so the write lock is held only for the final row swap,
//     not the propagation work, and
//   - what-if queries are the same session never applied: they queue their
//     extra seeds, flush, read the answer through Patch.Row and end in
//     Abort, cloning only the frontier their seeds actually touch.
//
// A what-if that reports only labels need not drain to the tolerance: a
// label is final once the distance to the fixed point provably cannot
// reorder its top two beliefs. Since E = F* − F solves E = A·E + R and
// ‖A‖ ≤ s̄ = σ̄(H̃ε)·‖W′‖₂ in the Frobenius operator norm,
//
//	max|E_ij| ≤ ‖E‖_F ≤ ‖R‖_F/(1 − s̄) ≤ √(k·Σᵢ‖Rᵢ‖²_∞)/(1 − s̄) = B,
//
// where σ̄ is a certified upper bound on H̃ε's largest singular value
// (sigmaBound squares H̃εᵀH̃ε, never approaching from below) and ‖W′‖₂ is
// bounded by the caller: ρ̄(W_base) from the Collatz–Wielandt bracket plus
// the delta overlay's Gershgorin drift bound, by Weyl's inequality. A
// node whose top-2 margin exceeds 2B has the fixed point's label.
// Patch.Certify arms the check; the promoted drain asks it after each
// whole-matrix round, where R is exact, and stops once every queried node
// passes (see Patch.Flush). Such a session is Aborted, never Applied.
//
// A State is NOT safe for concurrent mutation; the Engine serializes
// Init/Patch.Apply behind its write lock and reads behind its read lock.
// Patches never mutate their base before Apply, so any number of them may
// run concurrently over one State as long as the base is not mutated
// meanwhile.
package residual

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"factorgraph/internal/dense"
	"factorgraph/internal/exec"
	"factorgraph/internal/propagation"
	"factorgraph/internal/sparse"
)

// DefaultTol is the per-node residual ∞-norm below which residual mass is
// left unpushed. Leftover mass perturbs final beliefs by O(tol/(1−s)) per
// node in the worst case; 1e-8 keeps serving beliefs well inside the 1e-6
// agreement budget the parity tests enforce.
const DefaultTol = 1e-8

// sweepSlack tightens Init's convergence target below the push tolerance:
// its sweeps run until the residual is at or below Tol·sweepSlack. Init ends
// in a demotion that discards the leftover sub-threshold mass, so the
// tighter target shrinks that discard to a quarter of a push drain's — two
// extra sweeps at s = 0.5.
const sweepSlack = 0.25

// Options configures a State. The zero value matches the serving engine's
// propagation settings (s = 0.5, centered) with DefaultTol.
type Options struct {
	// S is the LinBP convergence parameter s ∈ (0,1); default 0.5. The
	// compatibility matrix is scaled by ε = S/(ρ(W)·ρ(H̃)) exactly as in
	// internal/propagation, so the fixed point is the same.
	S float64
	// Center centers X and H̃ around 1/k before propagating (Theorem 3.1:
	// labels are identical either way). Default true; set CenterOff to
	// disable.
	CenterOff bool
	// Tol is the per-node residual ∞-norm threshold; rows at or below it
	// are not pushed. 0 means DefaultTol.
	Tol float64
	// MaxSweeps bounds the whole-matrix rounds of Init and of one Flush, so
	// both terminate even where contraction is lost; default 100 (with
	// s = 0.5 the residual contracts by ~s per round, so 100 is far past any
	// realistic tolerance).
	MaxSweeps int
	// EdgeBudgetFactor bounds the sparse-tier push pass of a Flush: past
	// EdgeBudgetFactor·nnz(W) edges the session promotes, exactly as it does
	// when its frontier saturates, and the promoted tier prices every round
	// from there. Default 4.
	EdgeBudgetFactor float64
}

func (o *Options) defaults() {
	if o.S == 0 {
		o.S = 0.5
	}
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if o.MaxSweeps == 0 {
		// Residual mass decays like s^t per sweep, so reaching Tol from
		// O(1) mass needs ~log_s(Tol) sweeps; slack plus a floor of 100
		// covers mid-range s. A fixed cap independent of s would silently
		// stop short of the tolerance for s close to 1.
		o.MaxSweeps = int(math.Ceil(math.Log(o.Tol*sweepSlack)/math.Log(o.S))) + 10
		if o.MaxSweeps < 100 {
			o.MaxSweeps = 100
		}
	}
	if o.EdgeBudgetFactor == 0 {
		o.EdgeBudgetFactor = 4
	}
}

// Stats reports the work one Init or Patch.Flush performed; the Engine
// surfaces them through its own counters and the HTTP layer puts them in
// responses.
type Stats struct {
	// Pushed is the number of node pushes (a node may be pushed more than
	// once as returning mass re-raises its residual); a whole-matrix round
	// counts the rows it found above tolerance.
	Pushed int
	// Edges is the number of edge traversals performed one node at a time,
	// by heap pushes and tracked rounds; whole-matrix rounds are in Sweeps.
	Edges int
	// Sweeps is the number of whole-matrix rounds, each reading all nnz(W)
	// stored entries: every sweep of Init, and the rounds of a Flush whose
	// active rows owned over half of them.
	Sweeps int
	// Rounds is the number of rounds a promoted drain ran, tracked and
	// whole-matrix alike (0 when the frontier never outgrew the priority
	// queue).
	Rounds int
	// FellBack reports the decision that Flush ran a whole-matrix round
	// (Sweeps > 0): the perturbation had spread to where a round over every
	// row is cheaper than tracking the frontier. It is not a failure.
	FellBack bool
	// Certified reports that the label certificate (Patch.Certify) ended
	// the flush above the tolerance: every certified node's label was
	// provably final.
	Certified bool
	// MaxResidual is the largest per-node residual ∞-norm left behind.
	MaxResidual float64
}

// State is a resident incremental propagation context for one (W, H) pair.
// On mutable-topology engines W is a delta overlay (internal/delta): edge
// mutations swap in a new adjacency epoch with SetAdj and land their
// residual perturbation through Patch.AddEdgeDelta, so the same push
// machinery converges label patches and topology patches alike.
type State struct {
	w    exec.RowIterator
	n    int
	opts Options
	k    int

	hScaled *dense.Matrix // centered, ε-scaled H̃ (same as propagation.State)
	sigmaH  float64       // certified upper bound on σ_max(hScaled), for Certify

	x *dense.Matrix // centered explicit beliefs, kept in sync by Patch.Apply
	f *dense.Matrix // current belief estimate

	promoteAt int

	// Sparse residual tier: the only residual storage while the frontier
	// is small. Rows are exact residual rows; absent means zero.
	sRows map[int32][]float64

	// Dense residual tier; non-nil only during Init's sweeps and between a
	// Rescale and the Apply of the patch session that drains it.
	r     *dense.Matrix
	norms []float64

	edgeBudget int

	// pool recycles the sessions' scratch (see scratch): n-sized tables
	// and n×k matrices, so a warm session allocates none of them. It is
	// not resident state and MemoryBytes does not count it. Grow replaces
	// it: every pooled buffer is sized for the old n.
	pool *sync.Pool

	// droppedMass accumulates the residual ∞-norm mass discarded by
	// demotions, sparse-tier compactions and patch applies — the numeric
	// cost of the Tol-bounded discards the package comment bounds at
	// Tol·s/(1−s) per node per discard. Float64 bits, CAS-added: patch
	// sessions flush outside the engine locks, so plain arithmetic would
	// race with a concurrent health read.
	droppedMass atomic.Uint64
}

// NewState validates shapes, computes the ε-scaled compatibility matrix
// (sharing the CSR-level ρ(W) cache with internal/propagation) and
// allocates the belief/explicit-belief working set (the residual tier
// starts empty). Call Init before anything else.
func NewState(w *sparse.CSR, h *dense.Matrix, opts Options) (*State, error) {
	if w.N == 0 {
		return nil, fmt.Errorf("residual: empty graph")
	}
	return NewStateOn(w, h, opts, w.SpectralRadiusCached())
}

// NewStateOn is NewState over an arbitrary RowIterator adjacency with a
// caller-supplied ρ(W). The mutable-topology engine builds its state over
// the delta overlay with ρ pinned at the last compaction epoch, so the
// fixed point between compactions is exactly defined (the pinned scaling
// over the live topology) instead of drifting with every edge.
func NewStateOn(w exec.RowIterator, h *dense.Matrix, opts Options, rhoW float64) (*State, error) {
	if h.Rows != h.Cols {
		return nil, fmt.Errorf("residual: H is %d×%d, want square", h.Rows, h.Cols)
	}
	n := w.Dim()
	if n == 0 {
		return nil, fmt.Errorf("residual: empty graph")
	}
	if opts.S < 0 || opts.S >= 1 {
		return nil, fmt.Errorf("residual: convergence parameter s=%v outside (0,1)", opts.S)
	}
	if opts.Tol < 0 {
		return nil, fmt.Errorf("residual: negative tolerance %v", opts.Tol)
	}
	opts.defaults()
	k := h.Rows
	hUse := h.Clone()
	if !opts.CenterOff {
		hUse = dense.AddScalar(hUse, -1.0/float64(k))
	}
	eps, err := propagation.ScalingFactorWithRho(rhoW, hUse, opts.S)
	if err != nil {
		return nil, err
	}
	s := &State{
		w:         w,
		n:         n,
		opts:      opts,
		k:         k,
		hScaled:   dense.Scale(hUse, eps),
		x:         dense.New(n, k),
		f:         dense.New(n, k),
		promoteAt: promoteThreshold(n),
		sRows:     make(map[int32][]float64),
		pool:      new(sync.Pool),
	}
	s.sigmaH = sigmaBound(s.hScaled)
	s.resetEdgeBudget()
	return s, nil
}

// resetEdgeBudget re-derives the push-pass edge budget from the CURRENT
// stored-entry count; SetAdj calls it so the budget tracks a mutating
// topology.
func (s *State) resetEdgeBudget() {
	nnz := s.w.NNZ()
	s.edgeBudget = int(s.opts.EdgeBudgetFactor * float64(nnz))
	if s.edgeBudget < nnz {
		s.edgeBudget = nnz
	}
}

// SetAdj swaps the adjacency the state pushes over — the topology-mutation
// path publishes each new delta-overlay epoch here BEFORE flushing the
// edge perturbation, so the drain converges against the mutated graph.
// The caller must hold the lock that excludes every reader and serialize
// against flushes; the new adjacency must have Dim() == N() (grow first
// via Grow for node additions).
func (s *State) SetAdj(w exec.RowIterator) {
	s.w = w
	s.resetEdgeBudget()
}

// Grow extends the state to n nodes (appended ids, no edges yet — the
// caller wires them afterwards through its delta overlay + AddEdgeDelta).
// New rows start at the fixed point of an isolated node: X̃ row (centered
// zero) with zero residual. The caller must hold its write lock.
func (s *State) Grow(n int) {
	if n <= s.n {
		return
	}
	fill := 0.0
	if !s.opts.CenterOff {
		fill = -1.0 / float64(s.k)
	}
	s.x = growMatrix(s.x, n, fill)
	s.f = growMatrix(s.f, n, fill)
	if s.r != nil {
		s.r = growMatrix(s.r, n, 0)
		norms := make([]float64, n)
		copy(norms, s.norms)
		s.norms = norms
	}
	s.n = n
	s.promoteAt = promoteThreshold(n)
	s.pool = new(sync.Pool)
}

// growMatrix returns a copy of m extended to n rows, new rows filled with
// fill.
func growMatrix(m *dense.Matrix, n int, fill float64) *dense.Matrix {
	out := dense.New(n, m.Cols)
	copy(out.Data, m.Data)
	if fill != 0 {
		for i := m.Rows * m.Cols; i < len(out.Data); i++ {
			out.Data[i] = fill
		}
	}
	return out
}

// Rescale moves the state to a new ε-scaling: H̃ε ← c·H̃ε with
// c = ε_new/ε_old. The fixed point changes globally, but the residual
// catches the whole difference in closed form — from R = X̃ + εWFH̃ − F,
// the new residual is R' = R + (c−1)·(R − X̃ + F), a pure elementwise
// O(n·k) transform with no matrix multiply. The state is left on the dense
// tier with every norm exact and typically most rows dirty; the caller
// drains it (the engine runs a Patch session outside its locks) to
// converge the beliefs to the rescaled fixed point. The compaction path
// uses this when the canonically re-derived ρ(W) moved ε.
func (s *State) Rescale(c float64) {
	if c == 1 {
		return
	}
	s.promoteForSweep()
	k := s.k
	exec.Runner{}.Rows(s.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rRow := s.r.Data[i*k : (i+1)*k]
			xRow := s.x.Data[i*k : (i+1)*k]
			fRow := s.f.Data[i*k : (i+1)*k]
			for j := 0; j < k; j++ {
				rRow[j] += (c - 1) * (rRow[j] - xRow[j] + fRow[j])
			}
			s.norms[i] = exec.RowNorm(rRow)
		}
	})
	for i := range s.hScaled.Data {
		s.hScaled.Data[i] *= c
	}
	s.sigmaH = sigmaBound(s.hScaled)
}

// promoteThreshold is the frontier size at which a drain abandons the
// sparse tier: the priority queue wins while the perturbation is a handful
// of nodes (it pushes the largest residuals first and often converges
// without ever growing the frontier), but once the dirty set is a
// noticeable fraction of the graph the heap's per-edge overhead dwarfs the
// ordering benefit — promoted drains run level-synchronous rounds over
// dense arrays at sweep-like speed while still skipping clean nodes.
func promoteThreshold(n int) int {
	t := n / 32
	if t < 1024 {
		t = 1024
	}
	return t
}

// K returns the class count the state was built for.
func (s *State) K() int { return s.k }

// N returns the node count.
func (s *State) N() int { return s.n }

// Init solves for the fixed point from scratch: it installs x (the
// explicit-belief matrix, uncentered) and runs dense Jacobi sweeps
// F ← X̃ + εWFH̃ until every node's residual is at or below the tolerance.
// This is the one full-graph propagation the incremental engine pays per
// (graph, H) pair; everything after is o(Δ).
func (s *State) Init(x *dense.Matrix) (Stats, error) {
	if x.Rows != s.n || x.Cols != s.k {
		return Stats{}, fmt.Errorf("residual: X is %d×%d, state wants %d×%d", x.Rows, x.Cols, s.n, s.k)
	}
	s.x.CopyFrom(x)
	if !s.opts.CenterOff {
		shift := 1.0 / float64(s.k)
		for i := range s.x.Data {
			s.x.Data[i] -= shift
		}
	}
	s.f.CopyFrom(s.x)
	s.sRows = make(map[int32][]float64)
	s.r, s.norms = nil, nil // a pending Rescale's residual is void too
	s.promoteForSweep()
	// F = X̃ with R = 0: each whole-matrix round is one Jacobi sweep
	// F ← X̃ + εWFH̃ that leaves the (F, R) pair exact.
	pass := exec.NewPass(s.w, s.hScaled, s.f, s.r, s.norms, s.opts.Tol, exec.Runner{}, nil)
	var st Stats
	for st.Sweeps < s.opts.MaxSweeps {
		st.MaxResidual = pass.ExactRound(s.x)
		st.Sweeps++
		if st.MaxResidual <= s.opts.Tol*sweepSlack {
			break
		}
	}
	s.demote()
	mSweeps.Add(int64(st.Sweeps))
	return st, nil
}

// promoteForSweep moves the residual into the dense tier: the n×k array and
// the norm table, with the sparse rows folded in (Rescale transforms them;
// Init starts from none).
func (s *State) promoteForSweep() {
	if s.r != nil {
		return
	}
	mPromotions.Inc()
	s.r = dense.New(s.n, s.k)
	s.norms = make([]float64, s.n)
	for node, row := range s.sRows {
		copy(s.r.Row(int(node)), row)
		s.norms[node] = exec.RowNorm(row)
	}
	s.sRows = make(map[int32][]float64)
}

// demote releases the dense tier, carrying any still-dirty rows back into
// the sparse map. Residual mass at or below the tolerance is discarded
// (see the package comment for the error bound); after a complete drain or
// sweep that is all of it, so an idle State holds no residual storage.
func (s *State) demote() {
	if s.r == nil {
		return
	}
	mDemotions.Inc()
	dropped := 0.0
	for i, norm := range s.norms {
		if norm > s.opts.Tol {
			row := append([]float64(nil), s.r.Row(i)...)
			s.sRows[int32(i)] = row
		} else if norm > 0 {
			dropped += norm
		}
	}
	s.addDropped(dropped)
	s.r, s.norms = nil, nil
}

// compact bounds the sparse tier after a drain: if retained sub-tolerance
// rows have accumulated past the promotion threshold they are discarded
// (the same Tol-bounded error as a demotion) so the map can never creep
// toward a dense matrix worth of entries. The discarded rows are appended
// to free for reuse.
func (s *State) compact(free [][]float64) [][]float64 {
	if len(s.sRows) <= s.promoteAt {
		return free
	}
	dropped := 0.0
	for node, row := range s.sRows {
		if norm := exec.RowNorm(row); norm <= s.opts.Tol {
			dropped += norm
			delete(s.sRows, node)
			free = append(free, row)
		}
	}
	s.addDropped(dropped)
	return free
}

// addDropped folds discarded residual mass into the running total.
func (s *State) addDropped(v float64) {
	if v <= 0 {
		return
	}
	for {
		old := s.droppedMass.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.droppedMass.CompareAndSwap(old, next) {
			return
		}
	}
}

// DroppedMass reports the sum of the sub-tolerance residual ∞-norms this
// state has discarded at tier demotions, sparse compactions and patch
// applies: a count of drain work left undone, not an error bound. Each
// discard moves the fixed point by at most Tol·s/(1−s) per node (see the
// package comment), but the moves do not pile up past the next
// whole-matrix round: it recomputes R from F exactly, which returns every
// earlier discard to the residual it drains. On CI's smoke traffic the
// async tenant's sum reached 6.25e-4 while its served beliefs sat 1.85e-8
// from the fixed point. Safe to call concurrently with flushes.
func (s *State) DroppedMass() float64 {
	return math.Float64frombits(s.droppedMass.Load())
}

func (s *State) maxNorm() float64 {
	if s.r != nil {
		m := 0.0
		for _, v := range s.norms {
			if v > m {
				m = v
			}
		}
		return m
	}
	m := 0.0
	for _, row := range s.sRows {
		if v := exec.RowNorm(row); v > m {
			m = v
		}
	}
	return m
}

// Beliefs returns the live belief matrix. It aliases internal storage:
// callers must hold whatever lock serializes Patch.Apply, and must copy
// rows that need to outlive that lock. The alias goes bad when the lock is
// released, not merely stale: a promoted session's Apply hands the
// superseded matrix to the session pool, and a later promotion overwrites
// it. (The engine's read path copies the rows it emits under its read
// lock.)
func (s *State) Beliefs() *dense.Matrix { return s.f }

// Row returns node's live belief row (aliasing; see Beliefs).
func (s *State) Row(node int) []float64 { return s.f.Row(node) }

// XRow returns node's retained explicit-belief row (aliasing; see Beliefs),
// centered unless CenterOff. What-if sessions take "set this seed" as a
// delta against it — the X̃ their base actually holds.
func (s *State) XRow(node int) []float64 { return s.x.Row(node) }

// MaxResidual returns the largest pending per-node residual ∞-norm — the
// quality bound on the current beliefs.
func (s *State) MaxResidual() float64 { return s.maxNorm() }

// DirtyRows reports how many residual rows are materialized: sparse-tier
// map entries, or the dirty count of a resident dense tier. Memory
// accounting and the tier tests read it.
func (s *State) DirtyRows() int {
	if s.r != nil {
		n := 0
		for _, v := range s.norms {
			if v > 0 {
				n++
			}
		}
		return n
	}
	return len(s.sRows)
}

// DenseTier reports whether the dense residual tier is currently resident
// (it is only between a Rescale and the Apply of the session that drains
// it; an idle state is always sparse).
func (s *State) DenseTier() bool { return s.r != nil }

// mapRowBytes approximates the per-entry cost of a sparse residual row:
// the float64 payload plus map bucket and slice header overhead.
func (s *State) mapRowBytes() int64 { return int64(8*s.k) + 64 }

// MemoryBytes estimates the state's resident bytes in its CURRENT tier:
// the two permanent n×k matrices (X̃ and F), the sparse rows actually
// materialized, and — only while promoted — the dense residual array with
// its norm table. The serving engine's MemoryFootprint sums this into what
// /v1/admin/registry reports.
func (s *State) MemoryBytes() int64 {
	n, k := int64(s.n), int64(s.k)
	b := 2 * 8 * n * k // X̃ + F
	b += int64(len(s.sRows)) * s.mapRowBytes()
	if s.r != nil {
		b += 8*n*k + 8*n // r + norms
	}
	return b
}
