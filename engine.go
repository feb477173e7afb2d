package factorgraph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"factorgraph/internal/core"
	"factorgraph/internal/delta"
	"factorgraph/internal/exec"
	"factorgraph/internal/labels"
	"factorgraph/internal/residual"
	"factorgraph/internal/telemetry"
)

// ErrEngineInternal is wrapped by engine failures that are NOT the fault of
// the request (e.g. a propagation state that cannot be built); the HTTP
// layer maps these to 5xx instead of 4xx.
var ErrEngineInternal = errors.New("engine internal error")

// ErrEngineClosed is returned by operations on an Engine after Close. The
// registry guarantees (via refcounts) that a managed engine is never closed
// while a request holds it; this error is the defensive backstop for
// callers that retain a stale pointer anyway.
var ErrEngineClosed = errors.New("engine closed")

// Engine is the long-lived serving counterpart of the one-shot pipeline
// (Classify): it loads a graph once, performs the expensive preprocessing
// once — CSR construction (done by the Graph), the spectral radius ρ(W),
// and the compatibility estimate H from the configured estimator — and then
// answers classification queries concurrently.
//
// Beliefs live in a residual-propagation state (internal/residual) held at
// the LinBP fixed point: the first query per (graph, H) pair pays one full
// solve, after which every perturbation of it — a label patch, an edge
// mutation, a what-if — is the same copy-on-write session (residual.Patch):
// o(Δ) pushes around the perturbed neighborhood, then rounds on the
// session's private clone, priced one by one, if it floods. A committed
// change applies its session; a what-if reads its answer and drops it. The
// topology is a frozen CSR plus a copy-on-write delta overlay
// (internal/delta) that compactions fold into the next epoch.
//
// Concurrency model, in two sentences: readers share mu and copy out what
// they report under one read-lock hold; every transition of the fixed point,
// the first solve included, is serialised by one writer mutex (patchMu).
// The writers are UpdateLabels, MutateTopology, CompactTopology (and the
// background compactor's epoch install), SetH, Reestimate's install — the
// estimation itself runs outside every lock — and the cold solve a query on
// a cold engine pays (ensureWarm). A writer holds mu only briefly, to
// install seeds or swap a flushed session's rows in (Patch.Apply): the flush
// and the cold solve run with no engine lock held, so concurrent readers
// keep serving the untouched fixed point and /healthz and Stats stay live.
// What-if queries (Query.ExtraSeeds) flush their never-applied session under
// the read lock — they read live base rows a concurrent Apply would swap —
// concurrently with each other and with a writer's flush, and abort it once
// read, so no what-if leaves memory behind. A label-only what-if (TopK 0,
// explicit Nodes) ends its flush as soon as a certified error bound proves
// every queried label final (QueryMeta.Certified). ReleaseTransient and
// Close are NOT writers: they take mu only, because the registry calls them
// under its own lock on unpinned engines while an async compactor may hold
// the writer mutex through a rescale flush; a session that finds its state
// dropped when it comes to commit is discarded (commitSession). Lock order
// is patchMu → mu. All execution — dense rounds and saturated residual
// drains alike — runs on the shared parallel core in internal/exec over
// internal/sparse's worker pool.
type Engine struct {
	mu sync.RWMutex

	g        *Graph
	k        int
	seeds    []int     // current seed labels, Unlabeled for unknown
	nLabeled int       // labeled-seed count, maintained incrementally
	est      *Estimate // current compatibility estimate

	gen    int64 // bumped under mu on every seed/H/topology change
	eopts  EngineOptions
	closed bool // set by Close; all expensive operations refuse afterwards

	// topo is the mutable topology: the frozen base CSR plus the
	// copy-on-write delta overlay that MutateTopology publishes new epochs
	// of; nil only after Close. rhoW is the canonical ρ(W) of the current
	// epoch's base CSR; ε is pinned to it between compactions.
	topo *delta.Graph
	rhoW float64

	// compacting marks a background compactor building the next epoch
	// (AsyncCompact engines only); mutations keep landing in fresh
	// overlays stacked on the frozen epoch meanwhile. Guarded by mu;
	// compactCond broadcasts when it clears (WaitCompaction).
	// compactPanic is the printed panic that ended the last background
	// build, "" if it did not panic (TopoStats.CompactPanic); guarded by
	// mu.
	compacting   bool
	compactCond  *sync.Cond
	compactPanic string

	// nNodes is the live node count (grown by node additions); lock-free
	// so validation on the hot query paths never takes the engine lock.
	nNodes atomic.Int64

	// res is the live residual-propagation state: beliefs converged to the
	// current (seeds, H) pair, updated in place by o(Δ) pushes on label
	// patches. nil ⇒ cold, released or invalidated by an H change; the next
	// query re-initializes it with one full propagation (ensureWarm).
	res *residual.State

	// patchMu is the writer mutex: it serializes every transition of the
	// fixed point — patch sessions, epoch installs, H installs and the cold
	// solve — against each other, never against readers. Acquired before mu.
	patchMu sync.Mutex

	// Cached factorized summaries (the M⁽ℓ⁾/P̂⁽ℓ⁾ sketches). They depend
	// only on the graph and the seed labels — not on H — so they are keyed
	// by labelGen, which UpdateLabels bumps but SetH/Reestimate do not.
	// All sketch-based estimators (DCEr, DCE, MCE) share one summarization.
	labelGen int64 // bumped under mu on seed changes only
	sumMu    sync.Mutex
	sums     *core.Summaries // set only through setSumsLocked
	sumGen   int64           // labelGen the cached summaries were computed at
	// sumBytes publishes sums.MemoryBytes() for MemoryFootprint, which
	// holds mu and so cannot take sumMu (summariesFor takes sumMu first).
	sumBytes atomic.Int64
	// sumDrift is the cumulative |Δw| folded into the cached sketches by
	// incremental edge-delta updates since their last full summarization;
	// past sketchDriftFraction of the live edge count the cache is dropped
	// (the first-order updates accumulate O(Δw²) error). Guarded by sumMu.
	sumDrift float64

	// epochAt is when the current topology epoch was published — at
	// construction, then at every installEpoch. Guarded by mu; the health
	// surface reports its age so operators can see ε-staleness building
	// up on mutation-heavy graphs that never hit a compaction trigger.
	epochAt time.Time

	nEstimations       atomic.Int64
	nPropagations      atomic.Int64
	nQueries           atomic.Int64
	nLabelUpdates      atomic.Int64
	nSummarizations    atomic.Int64
	nResidualPatches   atomic.Int64
	nResidualPushes    atomic.Int64
	nResidualFallbacks atomic.Int64
	nEdgeMutations     atomic.Int64
	nCompactions       atomic.Int64
	nRescales          atomic.Int64
	nAsyncCompactions  atomic.Int64
	nSketchUpdates     atomic.Int64
}

// EngineOptions configures an Engine. The zero value estimates H with DCEr
// (the paper's recommended method) and serves with s = 0.5, centered.
//
// Served beliefs are the LinBP fixed point to ResidualTol: convergence is
// tolerance-driven, and a full propagation runs only on the first query per
// (graph, H) pair and after SetH/Reestimate. A perturbation that spreads so
// far that a round over every row is cheaper than tracking its frontier runs
// whole-matrix rounds from the current beliefs for as long as that holds
// (counted in Stats().ResidualFallbacks), never a cold solve. The one-shot
// facade (Classify, Propagate) instead runs the paper's 10 iterations.
type EngineOptions struct {
	// Estimator selects the sketch estimator the engine runs with the paper
	// defaults: "dcer" (default), "dce" or "mce". LCE and holdout read the
	// whole graph and are served by EstimateBy only; per-call tuning goes
	// through EstimateWith.
	Estimator string
	// S is the LinBP convergence parameter s ∈ (0,1); default 0.5. Values
	// outside (0,1) are rejected: the serving engine must never iterate a
	// non-contracting update (the library-level LinBPOptions stays
	// permissive for divergence experiments).
	S float64
	// Incremental is accepted and ignored: every engine is the residual
	// engine it used to select. Benchmark-only leftover (cmd/bench sets
	// it), to be dropped with the next benchmark change.
	Incremental bool
	// ResidualTol is the per-node residual ∞-norm tolerance; 0 means
	// residual.DefaultTol (1e-8).
	ResidualTol float64
	// ResidualEdgeBudget bounds the sparse-tier push pass of a session —
	// patch, mutation or what-if — at ResidualEdgeBudget × nnz(W) edge
	// traversals; past it the session promotes to its private clone, as it
	// does when its frontier saturates, and every round there is priced on
	// its own. 0 means the residual package default (4).
	ResidualEdgeBudget float64
	// CompactFraction is the share of stored adjacency entries allowed to
	// live in the streaming-mutation delta overlay before a mutation batch
	// triggers compaction (merge into a fresh canonical CSR + ε
	// re-derivation); 0 means the default 0.25.
	CompactFraction float64
	// AsyncCompact moves overlay-fraction compactions off the mutation
	// path: the triggering MutateTopology batch returns immediately
	// (MutateMeta.CompactPending) while a background compactor merges the
	// frozen epoch and runs the ρ(W) Lanczos bracket; mutations keep
	// landing in a fresh overlay stacked on top, and only the swap + the
	// closed-form residual rescale run under the write lock once the
	// build is ready. The contraction guard still compacts synchronously —
	// convergence is never left to a pending build.
	AsyncCompact bool
}

// EngineStats counts the expensive operations an Engine has performed;
// tests use it to assert that preprocessing happens once, not per query.
type EngineStats struct {
	// Estimations is the number of compatibility estimations (the O(mkℓ)
	// sketch + optimization pass).
	Estimations int64
	// Propagations is the number of full LinBP solves: the residual
	// state's cold initializations, one per cold start — the first query per
	// (graph, H) pair, and the first after an H change or a transient
	// release — however many writes land beside it. A what-if adds one only
	// when it is that first query.
	Propagations int64
	// Queries is the number of Classify calls answered.
	Queries int64
	// LabelUpdates is the number of UpdateLabels calls applied.
	LabelUpdates int64
	// Summarizations is the number of sketch computations (the O(mkℓ)
	// pass over the graph); estimator calls that reuse the cached
	// summaries do not increment it.
	Summarizations int64
	// ResidualPatches is the number of label updates applied as o(Δ)
	// residual pushes (every update on a warm engine).
	ResidualPatches int64
	// ResidualPushes is the total number of node pushes performed by the
	// residual subsystem, across patches and what-if sessions.
	ResidualPushes int64
	// ResidualFallbacks counts sessions (patch, mutation or what-if) that
	// ran at least one whole-matrix round, plus the mutations whose ε jump
	// dropped the residual state instead.
	ResidualFallbacks int64
	// OverlayCacheHits is always zero: every what-if flushes its own
	// session, there is no what-if cache. The field stays for callers that
	// still read it.
	OverlayCacheHits int64
	// EdgeMutations counts applied streaming edge mutations
	// (MutateTopology upserts + removals).
	EdgeMutations int64
	// TopoCompactions counts delta-overlay compactions (merge + canonical
	// ε re-derivation); TopoRescales counts the subset whose ρ(W) moved
	// and whose residual state was rescaled and re-converged.
	// TopoAsyncCompactions counts the compactions built by the background
	// compactor and installed by epoch swap (a subset of TopoCompactions).
	TopoCompactions      int64
	TopoRescales         int64
	TopoAsyncCompactions int64
	// SketchUpdates counts edge mutations folded into the cached DCEr
	// sketches incrementally (o(1) per summary entry) instead of
	// invalidating them.
	SketchUpdates int64
}

// Query describes one classification request against an Engine.
type Query struct {
	// Nodes restricts the response to these node ids; nil means all nodes.
	Nodes []int
	// TopK, when positive, attaches the top-k classes by belief score to
	// every returned node (clamped to the engine's class count). 0 returns
	// the argmax label only.
	TopK int
	// ExtraSeeds overlays ephemeral seed labels for this query only:
	// node → class, or node → Unlabeled to ignore an existing seed. The
	// engine's state is not modified: the query converges its own
	// copy-on-write session over the live beliefs and discards it.
	ExtraSeeds map[int]int
	// Trace, when non-nil, records per-stage timings of how the query was
	// served (the HTTP layer attaches one for debug=1 requests). nil — the
	// normal case — costs nothing: no clock reads, no allocation.
	Trace *telemetry.Trace
}

// ClassScore is one (class, belief score) pair of a top-k response.
type ClassScore struct {
	Class int     `json:"class"`
	Score float64 `json:"score"`
}

// NodeResult is the classification of a single node. A query's records
// take their Top from one per-query slab: each is its own k-capacity
// sub-slice of it, so records never share memory, but a record kept keeps
// the slab alive.
type NodeResult struct {
	Node  int          `json:"node"`
	Label int          `json:"label"`
	Top   []ClassScore `json:"top,omitempty"`
}

// Validate checks every option on its own — no value of one option rejects
// another — so admission layers (the registry) can refuse a bad spec at
// registration instead of on the first, expensive, engine build.
func (o EngineOptions) Validate() error {
	if _, _, err := sketchEstimatorFor(o.Estimator, EstimateOptions{}); err != nil {
		return err
	}
	for _, c := range []struct {
		name   string
		v, max float64
	}{
		{"convergence parameter S", o.S, 1},
		{"ResidualTol", o.ResidualTol, math.Inf(1)},
		{"ResidualEdgeBudget", o.ResidualEdgeBudget, math.Inf(1)},
		{"CompactFraction", o.CompactFraction, 1},
	} {
		// Written so NaN fails too: every comparison against NaN is false.
		if !(c.v >= 0 && c.v < c.max) {
			return fmt.Errorf("factorgraph: %s = %v outside [0,%v) (0 selects the default)", c.name, c.v, c.max)
		}
	}
	return nil
}

// NewEngine builds a serving engine over g with the given seed labels
// (length g.N, Unlabeled for unknown) and k classes. It performs all
// preprocessing eagerly: ρ(W) by cached Lanczos and the H estimate
// with the configured estimator. The engine keeps its own copy of seeds;
// the graph must not be mutated afterwards.
func NewEngine(g *Graph, seeds []int, k int, opts ...EngineOptions) (*Engine, error) {
	return newEngine(g, seeds, k, nil, "", opts)
}

// NewEngineWithH builds a serving engine like NewEngine but installs the
// given compatibility matrix instead of running an estimator — the expensive
// O(mkℓ) sketch+optimization pass is skipped entirely. The registry uses
// this to rebuild evicted engines from a persisted H, cutting rebuild cost
// to one propagation; method is recorded as the estimate's provenance.
func NewEngineWithH(g *Graph, seeds []int, k int, h *Matrix, method string, opts ...EngineOptions) (*Engine, error) {
	if h == nil {
		return nil, fmt.Errorf("factorgraph: NewEngineWithH needs a compatibility matrix")
	}
	return newEngine(g, seeds, k, h, method, opts)
}

func newEngine(g *Graph, seeds []int, k int, h *Matrix, method string, opts []EngineOptions) (*Engine, error) {
	var o EngineOptions
	if len(opts) > 1 {
		return nil, fmt.Errorf("factorgraph: at most one EngineOptions")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	if k < 2 {
		return nil, fmt.Errorf("factorgraph: engine needs k ≥ 2, got %d", k)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.S == 0 {
		o.S = 0.5 // eopts.S is the convergence parameter in force from here on
	}
	if h != nil && (h.Rows != k || h.Cols != k) {
		return nil, fmt.Errorf("factorgraph: H is %d×%d, engine has k=%d", h.Rows, h.Cols, k)
	}
	if len(seeds) != g.N {
		return nil, fmt.Errorf("factorgraph: %d seed labels for %d nodes", len(seeds), g.N)
	}
	if g.N == 0 {
		return nil, fmt.Errorf("factorgraph: empty graph")
	}
	e := &Engine{g: g, k: k, seeds: append([]int(nil), seeds...), eopts: o}
	e.compactCond = sync.NewCond(&e.mu)
	e.nLabeled = labels.NumLabeled(e.seeds)
	for node, c := range seeds {
		if c != Unlabeled && (c < 0 || c >= k) {
			return nil, fmt.Errorf("factorgraph: node %d has seed label %d outside [0,%d)", node, c, k)
		}
	}
	e.nNodes.Store(int64(g.N))
	e.epochAt = time.Now()
	// Warm the spectral-radius cache before any query arrives; this
	// canonical ρ(W) stays pinned until the next topology compaction.
	e.rhoW = g.Adj.SpectralRadiusCached()
	e.topo = delta.New(g.Adj)
	est := &Estimate{H: nil, Method: method}
	if h != nil {
		est.H = h.Clone()
	} else {
		var err error
		if est, err = e.EstimateWith(o.Estimator, EstimateOptions{}); err != nil {
			return nil, err
		}
	}
	e.est = est
	return e, nil
}

// residualOptions derives the residual subsystem's settings from the
// engine's options (zero values select the residual package defaults).
func (e *Engine) residualOptions() residual.Options {
	return residual.Options{
		S: e.eopts.S, Tol: e.eopts.ResidualTol, EdgeBudgetFactor: e.eopts.ResidualEdgeBudget,
	}
}

// EstimateWith runs the named sketch estimator — dcer, dce or mce — over
// the engine's live topology and current seeds without installing the
// result (use SetH to apply it). The name and options are checked first:
// an unknown name wraps ErrUnknownEstimator and options that do not fit
// wrap ErrEstimateOptions, and neither counts nor touches anything. A valid
// run is counted in Stats().Estimations and reuses the engine's cached
// summaries, so switching estimators costs only the k×k optimization, not
// a fresh O(mkℓ) pass over the graph.
func (e *Engine) EstimateWith(method string, opts EstimateOptions) (*Estimate, error) {
	se, lmax, err := sketchEstimatorFor(method, opts)
	if err != nil {
		return nil, err
	}
	e.nEstimations.Add(1)
	engEstimations.Inc()
	start := time.Now()
	s, err := e.summariesFor(lmax)
	if err != nil {
		return nil, err
	}
	return se.finish(s, lmax, opts, start)
}

// summariesFor returns factorized summaries of depth ≥ lmax for the current
// seeds, computing them at most once per label generation. A request for a
// shallower depth than the cached one is served by prefix truncation
// (M⁽ℓ⁾ of an ℓmax=5 summary equals M⁽ℓ⁾ of an ℓmax=1 summary); a deeper
// request replaces the cache.
func (e *Engine) summariesFor(lmax int) (*core.Summaries, error) {
	e.sumMu.Lock()
	defer e.sumMu.Unlock()
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrEngineClosed
	}
	gen := e.labelGen
	if e.sums != nil && e.sumGen == gen && e.sums.LMax >= lmax {
		e.mu.RUnlock()
		return e.sums, nil
	}
	seeds := append([]int(nil), e.seeds...)
	// Sketch the LIVE topology: the current delta epoch is a published,
	// immutable overlay that satisfies core.Topology directly, so a dirty
	// overlay never forces a compaction just to be summarized.
	w := e.topo
	e.mu.RUnlock()
	// Summarize at the requested depth only: an MCE-configured engine
	// (ℓmax=1) must not pay the 5-level sketch cost on every build and
	// rebuild. A later deeper request replaces the cache, after which
	// shallower ones are served by prefix truncation. The N⁽ℓ⁾ matrices are
	// retained so streaming edge mutations can update the sketches in place
	// (applySketchDeltas) instead of invalidating them.
	e.nSummarizations.Add(1)
	opts := sketchOptions(lmax)
	opts.KeepN = true
	s, err := core.SummarizeOn(w, seeds, e.k, opts)
	if err != nil {
		return nil, err
	}
	e.setSumsLocked(s)
	e.sumGen = gen
	return s, nil
}

// setSumsLocked installs s (nil drops the cache) with a zero drift account
// and publishes its retained walks' bytes to MemoryFootprint. The caller
// holds sumMu.
func (e *Engine) setSumsLocked(s *core.Summaries) {
	e.sums, e.sumDrift = s, 0
	e.sumBytes.Store(s.MemoryBytes())
}

// K returns the class count.
func (e *Engine) K() int { return e.k }

// liveN is the current node count (construction nodes + streamed
// additions); lock-free so hot-path validation never contends.
func (e *Engine) liveN() int { return int(e.nNodes.Load()) }

// Graph returns the underlying graph (shared, read-only): the canonical
// CSR of the current topology epoch, which compactions replace. It is the
// epoch's base without the live delta overlay, so edge mutations and node
// additions since the last compaction are not in it; Dims and TopoStats
// report the live dimensions. A reference built from it before a
// compaction is built on the wrong graph.
func (e *Engine) Graph() *Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g
}

// Estimate returns the current compatibility estimate.
func (e *Engine) Estimate() *Estimate {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.est
}

// Seeds returns a copy of the current seed labels, indexed by node id.
func (e *Engine) Seeds() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]int(nil), e.seeds...)
}

// LabeledCount returns the number of labeled seeds without copying the
// seed vector; cheap enough for liveness probes on huge graphs.
func (e *Engine) LabeledCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nLabeled
}

// Stats returns operation counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Estimations:       e.nEstimations.Load(),
		Propagations:      e.nPropagations.Load(),
		Queries:           e.nQueries.Load(),
		LabelUpdates:      e.nLabelUpdates.Load(),
		Summarizations:    e.nSummarizations.Load(),
		ResidualPatches:   e.nResidualPatches.Load(),
		ResidualPushes:    e.nResidualPushes.Load(),
		ResidualFallbacks: e.nResidualFallbacks.Load(),
		EdgeMutations:     e.nEdgeMutations.Load(),
		TopoCompactions:   e.nCompactions.Load(),
		TopoRescales:      e.nRescales.Load(),

		TopoAsyncCompactions: e.nAsyncCompactions.Load(),
		SketchUpdates:        e.nSketchUpdates.Load(),
	}
}

// NumericHealth is a point-in-time reading of the engine's numeric
// machinery — the quantities that silently decide correctness fallbacks
// and accuracy drift but are invisible in work counters. The flight
// recorder exports them per graph as gauges; the /v1/admin/health rollup
// checks only the ρ(W) bracket among them.
type NumericHealth struct {
	// ResidualDroppedMass is the sum of the residual ∞-norms discarded as
	// sub-tolerance by tier demotions, sparse compactions and patch
	// applies since the residual state was (re)initialized. It counts
	// discards, not error: every later whole-matrix round re-measures the
	// residual exactly and so takes back what was discarded before it (see
	// residual.State.DroppedMass).
	ResidualDroppedMass float64

	// ContractionMargin is the contraction guard minus the worst-case
	// effective convergence parameter s·(1+ρ(ΔW)bound/ρ(W)) of the pinned
	// ε under the live overlay — when it reaches zero the next mutation
	// batch forces a compaction.
	ContractionMargin float64

	// RhoW ≤ ρ(W) ≤ RhoWUpper is the spectral-radius bracket of the pinned
	// epoch's base CSR: RhoW is the Lanczos value ε is derived from,
	// RhoWUpper its Collatz–Wielandt upper bound.
	RhoW      float64
	RhoWUpper float64

	// OverlayFraction is the delta overlay's patched share of the base
	// rows; compaction runs when it reaches the engine's compaction
	// fraction.
	OverlayFraction float64

	// EpochAgeSeconds is the age of the current topology epoch (time
	// since construction, or since the last compaction epoch swap).
	// Epoch is the compaction generation of the live overlay, so a
	// health poller can tell "old epoch, quiet graph" from "old epoch,
	// compaction stuck".
	EpochAgeSeconds float64
	Epoch           int64

	// SketchDrift is the cumulative |Δw| folded into the cached estimator
	// sketches by first-order updates since the last full summarization;
	// at SketchDriftLimit (sketchDriftFraction of the live edge count)
	// the cache is dropped for accuracy.
	SketchDrift      float64
	SketchDriftLimit float64

	// TunedDeltaDivisor is the promoted drain's pricing divisor
	// (exec.DeltaDivisor). TunedMinPullWorkers is always 0: no parallel
	// pull schedule exists, every tracked round is the sequential scatter
	// at every worker count. ScheduleTuned is always false. Benchmark-only
	// leftovers (cmd/bench prints them), to be dropped with the next
	// benchmark change.
	TunedDeltaDivisor   int
	TunedMinPullWorkers int
	ScheduleTuned       bool
}

// NumericHealth reads the engine's numeric-health signals. It takes the
// read lock briefly and never blocks on propagation work, so health
// surfaces can poll it freely.
func (e *Engine) NumericHealth() NumericHealth {
	e.mu.RLock()
	var h NumericHealth
	if e.topo != nil { // nil once closed
		s := e.eopts.S
		bound := e.topo.RhoDeltaBound()
		sEff := s
		switch {
		case e.rhoW > 0:
			sEff = s * (1 + bound/e.rhoW)
		case bound > 0:
			sEff = 1 // degenerate base: guard trips immediately
		}
		h.ContractionMargin = contractionGuard - sEff
		// A load: every epoch's base was memoized before it was installed.
		h.RhoW, h.RhoWUpper = e.topo.Base().SpectralBracketCached()
		h.OverlayFraction = e.topo.PatchedFraction()
		h.SketchDriftLimit = sketchDriftFraction * float64(e.topo.UndirectedEdges())
		h.Epoch = e.topo.Stats().Compactions
	}
	res := e.res
	epochAt := e.epochAt
	e.mu.RUnlock()
	if res != nil {
		h.ResidualDroppedMass = res.DroppedMass()
	}
	if !epochAt.IsZero() {
		h.EpochAgeSeconds = time.Since(epochAt).Seconds()
	}
	e.sumMu.Lock()
	h.SketchDrift = e.sumDrift
	e.sumMu.Unlock()
	h.TunedDeltaDivisor = exec.DeltaDivisor
	return h
}

// EstimateEngineBytes estimates the resident memory of an Engine serving an
// n-node, m-edge, k-class graph: the CSR adjacency matrix (IndPtr int64,
// Indices int32 over 2m stored entries, Data float64 when weighted), the
// seed vector, and the n×k float64 working set at its peak — the residual
// state's X̃ and F, one promoted session in flight (its belief, residual
// and explicit-belief clones and the whole-matrix round's F·H̃ scratch) and
// the default DCEr sketch's ℓmax − 1 = 4 retained walks: ten matrices. The
// registry uses this as the admission weight for its memory budget; it
// deliberately overcounts an idle engine rather than undercount a busy one.
func EstimateEngineBytes(n, m, k int, weighted bool) int64 {
	seeds := 8 * int64(n)
	matrices := (2 + 4 + 4) * 8 * int64(n) * int64(k) // X̃+F, one promoted session, the sketch's walks
	return csrBytes(n, m, weighted) + seeds + matrices
}

// csrBytes is the CSR adjacency share of an engine's footprint.
func csrBytes(n, m int, weighted bool) int64 {
	b := 8*(int64(n)+1) + 8*int64(m) // IndPtr + 2m int32 indices
	if weighted {
		b += 16 * int64(m) // 2m float64 weights
	}
	return b
}

// MemoryFootprint estimates this engine's resident bytes from the tier
// actually in use: the CSR matrix and its delta overlay, the seed vector,
// the cached sketch's retained walks (core.Summaries.MemoryBytes) and the
// residual state's MemoryBytes — two n×k matrices plus only the residual
// rows currently materialized. An idle engine with an empty frontier
// therefore reports a fraction of the EstimateEngineBytes admission
// estimate; the dense residual tier and the session clones are transient and
// never idle-resident. The registry re-reads this per access, so
// /v1/admin/registry tracks tier changes live.
func (e *Engine) MemoryFootprint() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	b := csrBytes(e.g.N, e.g.M, e.g.Adj.Data != nil)
	if e.topo != nil { // nil once closed
		b += e.topo.MemoryBytes() // delta-overlay patch rows
	}
	b += 8 * int64(e.liveN()) // seeds
	b += e.sumBytes.Load()
	if e.res != nil {
		b += e.res.MemoryBytes()
	}
	return b
}

// Mutated reports whether the engine's state has diverged from its
// construction inputs: any label update, re-estimation or externally
// installed H since NewEngine. A registry uses this to refuse to evict
// engines whose spec-based rebuild would silently lose acknowledged
// mutations.
func (e *Engine) Mutated() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen != 0
}

// Close releases the engine's large buffers — the residual state and the
// cached summaries — and marks the engine closed; subsequent queries and
// updates fail with ErrEngineClosed. The graph itself is NOT owned by the
// engine and is left untouched. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.res = nil
	e.topo = nil
	e.mu.Unlock()
	e.sumMu.Lock()
	e.setSumsLocked(nil)
	e.sumMu.Unlock()
}

// ensureWarm pays the one full solve a cold engine owes — first query,
// after an H change, after ReleaseTransient — as a writer: it holds the
// writer mutex for the solve, so patches, mutations and epoch installs queue
// behind it and then run as o(Δ) sessions on the warm state, concurrent cold
// readers share one solve, and nothing can change the seeds, H or topology it
// reads. No engine lock is held while it runs (a multi-second operation on
// large graphs must not block /healthz readers behind a pending writer).
func (e *Engine) ensureWarm(tr *telemetry.Trace) error {
	e.patchMu.Lock()
	defer e.patchMu.Unlock()
	e.mu.RLock()
	closed, warm := e.closed, e.res != nil
	// Safe to read after unlock: every writer of these holds patchMu.
	seeds, h, topo, rhoW := e.seeds, e.est.H, e.topo, e.rhoW
	e.mu.RUnlock()
	if closed {
		return ErrEngineClosed
	}
	if warm {
		return nil // a cold reader ahead of us on the writer mutex solved
	}
	// The state is built over the live topology epoch with the pinned ρ(W),
	// so a mutated-then-released working set re-solves against the mutated
	// graph, not the construction one.
	rs, err := residual.NewStateOn(topo, h, e.residualOptions(), rhoW)
	if err != nil {
		return fmt.Errorf("factorgraph: %w: %v", ErrEngineInternal, err)
	}
	x, err := labels.Matrix(seeds, e.k)
	if err != nil {
		return fmt.Errorf("factorgraph: %w: %v", ErrEngineInternal, err)
	}
	e.nPropagations.Add(1)
	engPropagations.Inc()
	start := telemetry.Now()
	spanInit := tr.Start("residual.init")
	_, err = rs.Init(x)
	spanInit.End()
	if err != nil {
		return fmt.Errorf("factorgraph: %w: %v", ErrEngineInternal, err)
	}
	hPropagation.ObserveSince(start)
	e.mu.Lock()
	if !e.closed {
		e.res = rs
	}
	e.mu.Unlock()
	return nil
}

// rlockWarm takes the read lock and returns the live residual state, paying
// the cold solve first when there is none. On error no lock is held.
func (e *Engine) rlockWarm(tr *telemetry.Trace) (*residual.State, error) {
	e.mu.RLock()
	for e.res == nil && !e.closed {
		// Cold, or a ReleaseTransient landed between the solve and this hold.
		e.mu.RUnlock()
		if err := e.ensureWarm(tr); err != nil {
			return nil, err
		}
		e.mu.RLock()
	}
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrEngineClosed
	}
	return e.res, nil
}

// Classify answers one query from the live fixed point — O(len result), no
// propagation once the engine is warm; with ExtraSeeds it first converges a
// copy-on-write what-if session and drops it.
func (e *Engine) Classify(q Query) ([]NodeResult, error) {
	var out []NodeResult
	if q.Nodes != nil {
		out = make([]NodeResult, 0, len(q.Nodes))
	} else {
		out = make([]NodeResult, 0, e.liveN())
	}
	err := e.ClassifyEach(q, func(r NodeResult) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueryMeta describes how a query was answered; the HTTP layer reports it
// so clients (and benchmarks) can see the residual subsystem at work.
type QueryMeta struct {
	// Residual is true on every answered query: all of them read the
	// residual subsystem's live fixed point, directly or through a what-if
	// session.
	Residual bool
	// PushedNodes / TouchedEdges is the push work a what-if session
	// performed (zero for other queries).
	PushedNodes  int
	TouchedEdges int
	// ClonedRows is how many belief rows a what-if session held privately:
	// the copy-on-write rows of its frontier, or every row once the
	// session promoted to a private dense view.
	ClonedRows int
	// FellBack reports that the what-if spread until its active rows owned
	// over half the stored entries and the session ran whole-matrix rounds
	// on its private clone: a routing decision, not a failure.
	FellBack bool
	// Certified reports that a label-only what-if (TopK 0, explicit Nodes)
	// ended its session before the residual tolerance, once a certified
	// error bound proved every queried node's label final (see
	// residual.Patch.Certify). The labels are those of the fixed point.
	Certified bool
	// CacheHit is always false: every what-if flushes its own session,
	// there is no what-if cache. The field stays for callers that still
	// read it.
	CacheHit bool
}

// ClassifyEach is Classify without materializing the result slice: fn is
// invoked once per node in order. Queried nodes are validated before the
// first invocation, so fn never sees a partial error-bound iteration; an
// error from fn aborts and is returned. This is what the HTTP layer's
// NDJSON streaming uses: fn runs with no engine lock held, on labels and
// scores copied out when the query started, so a response is one consistent
// state however slowly the client drains it. Each record's Top is a
// distinct sub-slice of one slab allocated per query (see NodeResult), so
// fn may keep records without copying them.
func (e *Engine) ClassifyEach(q Query, fn func(NodeResult) error) error {
	_, err := e.ClassifyEachMeta(q, fn)
	return err
}

// ClassifyEachMeta is ClassifyEach plus metadata about how the query was
// served.
func (e *Engine) ClassifyEachMeta(q Query, fn func(NodeResult) error) (QueryMeta, error) {
	e.nQueries.Add(1)
	engQueries.Inc()
	tr := q.Trace // nil on untraced queries: every span call below is inert
	span := tr.Start("engine.classify")
	meta, err := e.classifyEachMeta(q, tr, fn)
	span.End()
	tr.AddWork(meta.PushedNodes, meta.TouchedEdges, meta.ClonedRows)
	return meta, err
}

// classifyEachMeta is the one read path, the body of ClassifyEachMeta under
// its "engine.classify" span. A plain read reads res.Row; a what-if is a
// label patch that is never applied: its extra seeds queue on a
// copy-on-write residual.Patch over the live state, the session converges —
// o(Δ) pushes around the perturbed frontier, tracked and whole-matrix rounds
// on its private clone if it floods — the answer is read through it, and it
// is aborted. Either way the labels and scores the response reports are
// copied out under one read-lock hold and emitted outside it. The stage
// records itself as a deferred-name child span (residual_direct, or
// overlay_flush for a what-if) with emit nested under it.
//
// A what-if's flush runs under the read lock (it reads live base rows a
// concurrent Apply would swap). A flooding what-if therefore holds it
// through its rounds: a patch's row swap arriving meanwhile waits for it,
// and so do the readers queued behind that writer.
func (e *Engine) classifyEachMeta(q Query, tr *telemetry.Trace, fn func(NodeResult) error) (QueryMeta, error) {
	liveN, k := e.liveN(), e.k
	for node, c := range q.ExtraSeeds {
		if node < 0 || node >= liveN {
			return QueryMeta{}, fmt.Errorf("factorgraph: extra seed node %d out of range n=%d", node, liveN)
		}
		if c != Unlabeled && (c < 0 || c >= k) {
			return QueryMeta{}, fmt.Errorf("factorgraph: extra seed class %d outside [0,%d)", c, k)
		}
	}
	for _, node := range q.Nodes {
		if node < 0 || node >= liveN {
			return QueryMeta{}, fmt.Errorf("factorgraph: query node %d out of range n=%d", node, liveN)
		}
	}
	topk := min(q.TopK, k)
	stage := "residual_direct"
	span := tr.Start("")
	defer func() { span.EndAs(stage) }()

	res, err := e.rlockWarm(tr)
	if err != nil {
		return QueryMeta{}, err
	}
	meta, row := QueryMeta{Residual: true}, res.Row
	var session *residual.Patch
	if len(q.ExtraSeeds) > 0 {
		var certify []int
		if topk == 0 && q.Nodes != nil {
			certify = q.Nodes // only labels are read: stop once they are final
		}
		meta, session = e.whatIfSession(res, q.ExtraSeeds, certify, tr)
		row, stage = session.Row, "overlay_flush"
	}
	n := len(q.Nodes)
	if q.Nodes == nil {
		n = res.N()
	}
	nodeAt := func(i int) int {
		if q.Nodes != nil {
			return q.Nodes[i]
		}
		return i
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc) // after the emit loop, on every path
	sc.labs = slices.Grow(sc.labs[:0], n)[:n]
	labs := sc.labs
	var scores []float64
	// Every record's Top, k apiece. Not pooled: NodeResult.Top aliases it
	// and ClassifyEach callers may keep records.
	var slab []ClassScore
	if topk > 0 {
		sc.scores = slices.Grow(sc.scores[:0], n*k)[:n*k]
		scores = sc.scores
		slab = make([]ClassScore, n*k)
	}
	for i := range labs {
		r := row(nodeAt(i))
		labs[i] = argmaxRow(r)
		if topk > 0 {
			copy(scores[i*k:], r)
		}
	}
	if session != nil {
		session.Abort() // a what-if never reaches the base
	}
	e.mu.RUnlock()
	// fn may write to a network: it never runs with mu held.
	spanEmit := tr.Start("emit")
	defer spanEmit.End()
	for i, lab := range labs {
		var r []float64
		var top []ClassScore
		if topk > 0 {
			r = scores[i*k : (i+1)*k]
			top = slab[i*k : (i+1)*k : (i+1)*k]
		}
		if err := e.emitResult(nodeAt(i), r, lab, topk, top, fn); err != nil {
			return meta, err
		}
	}
	return meta, nil
}

// readScratch is a read's labels and scores, copied out under the read
// lock and emitted outside it: n-sized on a full-graph stream, so pooled
// rather than allocated per query. A sync.Pool, not a field on Engine, so an
// idle engine keeps none of it past two collections.
type readScratch struct {
	labs   []int
	scores []float64
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// whatIfSession opens a what-if session over res and flushes it; the caller
// holds the read lock, reads its answer through the session and aborts it.
// A non-nil certify arms the session's label certificate for those nodes,
// against ‖W′‖₂ ≤ ρ̄(W_base) + the overlay's drift bound (Weyl's
// inequality; the overlay is res's adjacency under the read lock).
func (e *Engine) whatIfSession(res *residual.State, extra map[int]int, certify []int, tr *telemetry.Trace) (QueryMeta, *residual.Patch) {
	session := res.BeginPatch()
	session.Trace = tr
	if certify != nil {
		_, rhoUpper := e.topo.Base().SpectralBracketCached()
		session.Certify(certify, rhoUpper+e.topo.RhoDeltaBound())
	}
	for _, node := range sortedNodes(extra) {
		c := extra[node]
		// The delta is taken against the X̃ the base holds, not e.seeds:
		// between a label patch's seed install and its Apply the seeds are
		// one patch ahead of the beliefs this session reads.
		if d := seedDelta(e.k, seedOf(res.XRow(node)), c); d != nil {
			session.AddDelta(node, d)
		}
	}
	st := e.flushSession(session)
	return QueryMeta{
		Residual: true, PushedNodes: st.Pushed, TouchedEdges: st.Edges,
		ClonedRows: session.OwnedRows(), FellBack: st.FellBack, Certified: st.Certified,
	}, session
}

// sortedNodes returns a node → class map's nodes in ascending order, the
// order seed deltas are queued in: equal-norm deltas then enter the push
// heap alike on every run, so one request sequence gives one set of beliefs.
func sortedNodes(m map[int]int) []int {
	nodes := make([]int, 0, len(m))
	for node := range m {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	return nodes
}

// seedOf reads a node's seed class back from its explicit-belief row — the
// one positive entry of a one-hot row, centered or not — or Unlabeled.
func seedOf(xRow []float64) int {
	for c, v := range xRow {
		if v > 0 {
			return c
		}
	}
	return Unlabeled
}

// seedDelta is the explicit-belief change of moving a node's seed from old
// to c, onehot(c) − onehot(old); nil when nothing changes.
func seedDelta(k, old, c int) []float64 {
	if old == c {
		return nil
	}
	delta := make([]float64, k)
	if old != Unlabeled {
		delta[old] -= 1
	}
	if c != Unlabeled {
		delta[c] += 1
	}
	return delta
}

func argmaxRow(row []float64) int {
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// emitResult renders one NodeResult and hands it to fn. row and scores are
// only read when topk > 0; scores (k long) becomes the record's Top.
func (e *Engine) emitResult(node int, row []float64, lab, topk int, scores []ClassScore, fn func(NodeResult) error) error {
	r := NodeResult{Node: node, Label: lab}
	if topk > 0 {
		// Insertion sort by descending score over the ascending-class fill:
		// the strict > keeps tied scores in ascending class order.
		for c, v := range row[:e.k] {
			j := c
			for ; j > 0 && v > scores[j-1].Score; j-- {
				scores[j] = scores[j-1]
			}
			scores[j] = ClassScore{Class: c, Score: v}
		}
		r.Top = scores[:topk]
	}
	return fn(r)
}

// PatchMeta describes how a label update was applied; the HTTP layer
// reports it in PATCH /labels responses.
type PatchMeta struct {
	// Residual is true when the update was propagated in place by o(Δ)
	// residual pushes; false means the residual state was cold (never
	// queried, released, or voided by an H change): only the seeds were
	// installed, and the next query's one full solve starts from them.
	Residual bool
	// PushedNodes / TouchedEdges is the push work the flush performed.
	PushedNodes  int
	TouchedEdges int
	// FellBack reports that the perturbation spread until its active rows
	// owned over half the stored entries and the patch session ran
	// whole-matrix rounds on its private cloned view — a routing decision,
	// taken outside the engine's locks, so readers were never stalled and
	// the residual state survives the flood.
	FellBack bool
	// LockWaitSeconds / FlushSeconds attribute the update's time to its two
	// expensive phases — waiting behind the patch/write locks and the
	// residual flush itself — for per-request cost accounting.
	LockWaitSeconds float64
	FlushSeconds    float64
}

// UpdateLabels applies an incremental seed-label update without rebuilding
// anything expensive: set assigns classes to nodes, remove clears seeds.
// The CSR matrix, ρ(W) and the H estimate are all retained, and the change
// is pushed through the live residual state, so the next query costs o(Δ),
// not a propagation. Call Reestimate when enough labels changed that H
// itself should be refreshed.
func (e *Engine) UpdateLabels(set map[int]int, remove []int) error {
	_, err := e.UpdateLabelsMeta(set, remove)
	return err
}

// UpdateLabelsMeta is UpdateLabels plus metadata about how the update was
// propagated.
//
// Locking: the write lock is held twice, briefly — once to validate and
// install the new seeds, once to swap in the flushed result. The residual
// flush itself (the propagation-scale work) runs in between on a
// copy-on-write residual.Patch with no engine lock held: concurrent
// readers serve the pre-patch beliefs from the untouched base, exactly as
// if they had arrived just before the patch. patchMu serializes patch
// sessions so two concurrent updates cannot interleave their base views.
func (e *Engine) UpdateLabelsMeta(set map[int]int, remove []int) (PatchMeta, error) {
	return e.UpdateLabelsMetaCtx(context.Background(), set, remove)
}

// UpdateLabelsMetaCtx is UpdateLabelsMeta carrying the request context: a
// trace attached to ctx (telemetry.WithTrace) records the update as an
// "engine.patch" span tree — lock_wait, the residual flush (with the exec
// drain nested under it) and the apply swap.
func (e *Engine) UpdateLabelsMetaCtx(ctx context.Context, set map[int]int, remove []int) (PatchMeta, error) {
	tr := telemetry.TraceFrom(ctx)
	span := tr.Start("engine.patch")
	meta, err := e.updateLabelsMeta(set, remove, tr)
	span.End()
	tr.AddWork(meta.PushedNodes, meta.TouchedEdges, 0)
	tr.AddWait(meta.FlushSeconds, meta.LockWaitSeconds)
	return meta, err
}

func (e *Engine) updateLabelsMeta(set map[int]int, remove []int, tr *telemetry.Trace) (PatchMeta, error) {
	lockStart := telemetry.Now()
	spanLock := tr.Start("lock_wait")
	e.patchMu.Lock()
	defer e.patchMu.Unlock()
	e.mu.Lock()
	spanLock.End()
	hPatchLockWaitLabel.ObserveSince(lockStart)
	var lockWaitSec float64
	if !lockStart.IsZero() {
		lockWaitSec = time.Since(lockStart).Seconds()
	}
	if e.closed {
		e.mu.Unlock()
		return PatchMeta{}, ErrEngineClosed
	}
	// Validate fully before mutating so a bad request leaves state intact.
	n := len(e.seeds)
	for node, c := range set {
		if node < 0 || node >= n {
			e.mu.Unlock()
			return PatchMeta{}, fmt.Errorf("factorgraph: label update node %d out of range n=%d", node, n)
		}
		if c < 0 || c >= e.k {
			e.mu.Unlock()
			return PatchMeta{}, fmt.Errorf("factorgraph: label update class %d outside [0,%d)", c, e.k)
		}
	}
	for _, node := range remove {
		if node < 0 || node >= n {
			e.mu.Unlock()
			return PatchMeta{}, fmt.Errorf("factorgraph: label removal node %d out of range n=%d", node, n)
		}
	}
	res := e.res
	var patch *residual.Patch
	if res != nil {
		patch = res.BeginPatch()
		patch.Trace = tr
	}
	for _, node := range sortedNodes(set) {
		e.setSeedLocked(node, set[node], patch)
	}
	for _, node := range remove {
		e.setSeedLocked(node, Unlabeled, patch)
	}
	e.gen++
	e.labelGen++ // seeds changed ⇒ cached summaries are stale
	e.nLabelUpdates.Add(1)
	engLabelPatches.Inc()
	e.mu.Unlock()
	if patch == nil {
		return PatchMeta{LockWaitSeconds: lockWaitSec}, nil
	}
	// Flush OUTSIDE the engine locks: a wide patch promotes to tracked and
	// whole-matrix rounds on its private clone without stalling a single
	// reader. The deltas queued by setSeedLocked coalesce into one
	// flush per batch.
	flushStart := telemetry.Now()
	st := e.flushSession(patch)
	hPatchFlushLabel.ObserveSince(flushStart)
	var flushSec float64
	if !flushStart.IsZero() {
		flushSec = time.Since(flushStart).Seconds()
	}
	e.nResidualPatches.Add(1)
	applyStart := telemetry.Now()
	spanApply := tr.Start("apply")
	e.commitSession(res, patch)
	spanApply.End()
	hPatchApplyLabel.ObserveSince(applyStart)
	return PatchMeta{
		Residual: true, PushedNodes: st.Pushed, TouchedEdges: st.Edges, FellBack: st.FellBack,
		LockWaitSeconds: lockWaitSec, FlushSeconds: flushSec,
	}, nil
}

// flushSession converges a patch session — committed change or what-if —
// and counts its work.
func (e *Engine) flushSession(p *residual.Patch) residual.Stats {
	st := p.Flush()
	e.nResidualPushes.Add(int64(st.Pushed))
	if st.FellBack {
		e.nResidualFallbacks.Add(1)
	}
	return st
}

// commitSession ends a flushed session of a committed change: under the
// write lock it swaps the result into res — row copies for a narrow patch,
// pointer swaps for a promoted one — unless an H change, ReleaseTransient
// or Close replaced (or dropped) the residual state mid-flush. Any
// successor state initializes from the already patched seeds and topology,
// so the session is then discarded; Abort releases a promoted session's
// O(n·k) clones eagerly.
func (e *Engine) commitSession(res *residual.State, p *residual.Patch) {
	e.mu.Lock()
	applied := e.res == res && !e.closed
	if applied {
		p.Apply()
		e.gen++
	}
	e.mu.Unlock()
	if !applied {
		p.Abort()
	}
}

// setSeedLocked installs seed class c on node.
func (e *Engine) setSeedLocked(node, c int, patch *residual.Patch) {
	old := e.seeds[node]
	if old == Unlabeled && c != Unlabeled {
		e.nLabeled++
	} else if old != Unlabeled && c == Unlabeled {
		e.nLabeled--
	}
	e.seeds[node] = c
	if patch == nil {
		return
	}
	// Queue the explicit-belief delta on the patch session;
	// UpdateLabelsMeta flushes once after the whole batch so overlapping
	// patches coalesce.
	if d := seedDelta(e.k, old, c); d != nil {
		patch.AddDelta(node, d)
	}
}

// Reestimate re-runs the configured estimator on the current seeds and
// installs the result. ρ(W) and the CSR matrix are reused via the caches, so
// this costs one sketch+optimization pass — which runs OUTSIDE every lock
// (like EstimateWith), so queries and patches keep running on the old fixed
// point while it computes; only the install is a writer. If seeds change
// concurrently, last-writer-wins: the installed H reflects the seeds captured
// at entry.
func (e *Engine) Reestimate() (*Estimate, error) {
	est, err := e.EstimateWith(e.eopts.Estimator, EstimateOptions{})
	if err != nil {
		return nil, err
	}
	if err := e.installH(est); err != nil {
		return nil, err
	}
	return est, nil
}

// installH replaces the compatibility estimate as a writer — behind any
// session or cold solve in flight, so none of them commits a fixed point of
// the old H afterwards — and voids the residual state: the next query
// re-solves.
func (e *Engine) installH(est *Estimate) error {
	e.patchMu.Lock()
	defer e.patchMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.est = est
	e.res = nil
	e.gen++
	return nil
}

// SetH installs an externally supplied compatibility matrix (e.g. a gold
// standard or an estimate produced with different options); the next query
// re-solves under it. A non-finite entry is rejected: it would make ε, and
// with it every belief served afterwards, NaN.
func (e *Engine) SetH(h *Matrix, method string) error {
	if h.Rows != e.k || h.Cols != e.k {
		return fmt.Errorf("factorgraph: H is %d×%d, engine has k=%d", h.Rows, h.Cols, e.k)
	}
	for i, v := range h.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("factorgraph: H[%d][%d] = %v is not finite", i/e.k, i%e.k, v)
		}
	}
	return e.installH(&Estimate{H: h.Clone(), Method: method})
}
