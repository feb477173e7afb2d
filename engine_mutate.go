package factorgraph

import (
	"context"
	"fmt"
	"math"
	"time"

	"factorgraph/internal/delta"
	"factorgraph/internal/graph"
	"factorgraph/internal/residual"
	"factorgraph/internal/sparse"
	"factorgraph/internal/telemetry"
)

// EdgeMutation is one streaming topology change: an undirected edge upsert
// (W == 0 means weight 1; negative weights are rejected) or, with Remove
// set, an edge deletion.
type EdgeMutation struct {
	U, V   int
	W      float64
	Remove bool
}

// MutateMeta describes how a topology mutation batch was applied.
type MutateMeta struct {
	// AddedNodes / SetEdges / RemovedEdges count the applied changes;
	// MissingRemoves counts removals of absent edges (no-ops, not errors —
	// streams may replay).
	AddedNodes     int
	SetEdges       int
	RemovedEdges   int
	MissingRemoves int
	// Residual is true when the perturbation was repropagated in place by
	// o(Δ) residual pushes seeded at the mutated endpoints; false means the
	// engine was cold (or the contraction guard forced a re-solve) and the
	// next query pays the full propagation.
	Residual bool
	// PushedNodes / TouchedEdges is the push work of the residual flush.
	PushedNodes  int
	TouchedEdges int
	// FellBack reports the flush ran a whole-matrix round on the patch
	// session's private clone (its active rows owned over half the stored
	// entries): a routing decision, not a failure.
	FellBack bool
	// Compacted reports that this batch ended in a compaction: the delta
	// overlay was merged into a fresh canonical CSR, swapped in under the
	// write lock, and ρ(W)/ε were re-derived from it.
	Compacted bool
	// CompactPending reports that this batch tripped the overlay-fraction
	// threshold on an AsyncCompact engine: a background compactor is
	// building the merged CSR against the frozen epoch and will swap it in
	// off the mutation path — this batch did NOT pay the merge.
	CompactPending bool
	// Rescaled reports that the compaction moved ε (ρ(W) changed) and the
	// residual state was rescaled and re-converged to the new fixed point.
	Rescaled bool
	// OverlayFraction is the post-batch share of stored entries living in
	// the delta overlay (0 right after a compaction).
	OverlayFraction float64
	// Nodes / Edges are the post-batch live dimensions.
	Nodes, Edges int
	// LockWaitSeconds / FlushSeconds attribute the batch's time to lock
	// acquisition and the residual flush, for per-request cost accounting.
	LockWaitSeconds float64
	FlushSeconds    float64
}

// defaultCompactFraction is the overlay share of stored entries past which
// a mutation batch triggers compaction.
const defaultCompactFraction = 0.25

// contractionGuard bounds the effective convergence parameter the pinned
// ε may reach between compactions: mutations keep ε·ρ(W')·ρ(H̃) ≤
// contractionGuard via the Gershgorin drift bound, forcing an early
// compaction (which re-derives ε) instead of ever iterating a
// non-contracting update.
const contractionGuard = 0.95

// MutateTopology applies a batch of streaming topology mutations — node
// additions followed by edge upserts/removals — against the live engine,
// without rebuilding anything: the CSR stays frozen and the changes land in
// a copy-on-write delta overlay (internal/delta) that every execution
// kernel iterates transparently. On a warm engine the batch seeds the
// residual frontier at the mutated endpoints (ΔR = ε·ΔW·F·H̃) and a
// residual.Patch session flushes it OUTSIDE the engine locks, so
// convergence costs o(Δ) like label patches and concurrent readers keep
// serving the pre-mutation beliefs until the row swap.
//
// Consistency: beliefs between compactions are the exact fixed point of
// the LIVE topology under the ε-scaling pinned at the last compaction
// epoch. Once the overlay fraction passes CompactFraction (or the
// contraction guard trips) the batch ends in a compaction: the overlay
// merges into a fresh canonical CSR — bit-identical to a cold build of the
// same edge set — ρ(W) and ε are re-derived from it exactly as a cold
// build would, and the residual state is rescaled and re-converged, so a
// compacted mutated engine is indistinguishable from a cold engine on the
// final edge set (the parity tests pin this to 1e-6).
func (e *Engine) MutateTopology(addNodes int, muts []EdgeMutation) (meta MutateMeta, err error) {
	return e.MutateTopologyCtx(context.Background(), addNodes, muts)
}

// MutateTopologyCtx is MutateTopology carrying the request context: a trace
// attached to ctx (telemetry.WithTrace) records the batch as an
// "engine.mutate" span tree — lock_wait, the residual flush (with the exec
// tiers nested under it), the apply swap and any compaction the batch
// triggered.
func (e *Engine) MutateTopologyCtx(ctx context.Context, addNodes int, muts []EdgeMutation) (MutateMeta, error) {
	tr := telemetry.TraceFrom(ctx)
	span := tr.Start("engine.mutate")
	meta, err := e.mutateTopology(addNodes, muts, tr)
	span.End()
	tr.AddWork(meta.PushedNodes, meta.TouchedEdges, 0)
	tr.AddWait(meta.FlushSeconds, meta.LockWaitSeconds)
	return meta, err
}

func (e *Engine) mutateTopology(addNodes int, muts []EdgeMutation, tr *telemetry.Trace) (meta MutateMeta, err error) {
	// Stamp the live dimensions on EVERY return path — error metas
	// included, so a compaction failure surfaced over HTTP still reports
	// the real node/edge counts instead of zeros. Every return below runs
	// with e.mu released, so the deferred read-lock cannot deadlock.
	defer e.fillTopoDims(&meta)
	if addNodes < 0 {
		return MutateMeta{}, fmt.Errorf("factorgraph: negative node addition %d", addNodes)
	}
	lockStart := telemetry.Now()
	spanLock := tr.Start("lock_wait")
	e.patchMu.Lock()
	defer e.patchMu.Unlock()

	e.mu.Lock()
	spanLock.End()
	hPatchLockWaitTopo.ObserveSince(lockStart)
	if !lockStart.IsZero() {
		meta.LockWaitSeconds = time.Since(lockStart).Seconds()
	}
	if e.closed {
		e.mu.Unlock()
		return MutateMeta{}, ErrEngineClosed
	}
	// Refuse growth before anything n-sized is touched: the CSR's column ids
	// are int32. Written as a subtraction so the sum cannot overflow int.
	if cur := e.topo.Dim(); addNodes > math.MaxInt32-cur {
		e.mu.Unlock()
		return MutateMeta{}, fmt.Errorf("factorgraph: adding %d nodes to %d exceeds the %d-node limit", addNodes, cur, math.MaxInt32)
	}
	n := e.topo.Dim() + addNodes
	for _, m := range muts {
		if m.U < 0 || m.U >= n || m.V < 0 || m.V >= n {
			e.mu.Unlock()
			return MutateMeta{}, fmt.Errorf("factorgraph: edge (%d,%d) out of range n=%d", m.U, m.V, n)
		}
		if m.U == m.V {
			// The reproduction serves simple undirected graphs end-to-end
			// (cold builds never produce self-loops and the paper's W is
			// hollow); the delta storage layer can
			// represent u == v, but accepting it here would create graphs a
			// cold rebuild of the same edge stream cannot reproduce.
			// Rejected for upserts and removals alike, before any mutation
			// lands — the batch is all-or-nothing.
			e.mu.Unlock()
			return MutateMeta{}, fmt.Errorf("factorgraph: self-loop (%d,%d) rejected (the engine serves simple graphs)", m.U, m.V)
		}
		if !m.Remove {
			w := m.W
			if w == 0 {
				w = 1
			}
			if !graph.ValidWeight(w) {
				e.mu.Unlock()
				return MutateMeta{}, fmt.Errorf("factorgraph: invalid edge weight %v on (%d,%d)", m.W, m.U, m.V)
			}
		}
	}
	next := e.topo.Clone()
	if addNodes > 0 {
		next.AddNodes(addNodes)
		// Appended ids start Unlabeled; the residual state grows below,
		// ordered against SetAdj.
		for len(e.seeds) < n {
			e.seeds = append(e.seeds, Unlabeled)
		}
		meta.AddedNodes = addNodes
	}
	res := e.res
	var patch *residual.Patch
	if res != nil {
		// Publish the mutated epoch to the solver first: the patch flush
		// must converge against the NEW topology (the residual invariant is
		// R = X̃ + εW'FH̃ − F once the seeds below land).
		res.Grow(n)
		res.SetAdj(next)
		patch = res.BeginPatch()
		patch.Trace = tr
	}
	var skDeltas []sketchDelta
	for _, m := range muts {
		var dw float64
		if m.Remove {
			old, ok := next.RemoveEdge(m.U, m.V)
			if !ok {
				meta.MissingRemoves++
				continue
			}
			dw = -old
			meta.RemovedEdges++
		} else {
			w := m.W
			if w == 0 {
				w = 1
			}
			old := next.SetEdge(m.U, m.V, w)
			dw = w - old
			meta.SetEdges++
		}
		if dw != 0 {
			if patch != nil {
				patch.AddEdgeDelta(m.U, m.V, dw)
			}
			skDeltas = append(skDeltas, sketchDelta{u: m.U, v: m.V, dw: dw})
		}
	}
	e.topo = next
	e.gen++
	oldLabelGen := e.labelGen
	e.labelGen++ // the summaries sketch the topology; it changed
	newLabelGen := e.labelGen
	// The seed slice header is safe to read after unlock: every seed
	// writer holds patchMu, which we hold for the whole batch.
	seeds := e.seeds
	liveEdges := next.UndirectedEdges()
	e.nNodes.Store(int64(next.Dim()))
	e.nEdgeMutations.Add(int64(meta.SetEdges + meta.RemovedEdges))
	engEdgeMutations.Add(int64(meta.SetEdges + meta.RemovedEdges))
	force := e.contractionGuardTrippedLocked(next)
	if force && patch != nil {
		// The pinned ε can no longer guarantee contraction: do not flush
		// (pushes might not converge). Abort the seeded session so its
		// clones release, drop the residual state; the forced compaction
		// below re-derives ε and the next query re-solves.
		patch.Abort()
		e.res = nil
		res, patch = nil, nil
		e.nResidualFallbacks.Add(1)
	}
	e.mu.Unlock()

	// Fold the batch into the cached DCEr sketches in o(1) per summary
	// entry (or invalidate them past the drift bound) so Reestimate on the
	// mutated engine stays o(Δ) — no compaction, no re-summarization.
	e.applySketchDeltas(oldLabelGen, newLabelGen, seeds, liveEdges, skDeltas)

	if patch != nil {
		// Flush OUTSIDE the engine locks — same narrow-locking contract as
		// label patches: readers serve pre-mutation beliefs meanwhile.
		flushStart := telemetry.Now()
		st := e.flushSession(patch)
		hPatchFlushTopo.ObserveSince(flushStart)
		if !flushStart.IsZero() {
			meta.FlushSeconds = time.Since(flushStart).Seconds()
		}
		meta.Residual = true
		meta.PushedNodes, meta.TouchedEdges, meta.FellBack = st.Pushed, st.Edges, st.FellBack
		applyStart := telemetry.Now()
		spanApply := tr.Start("apply")
		e.commitSession(res, patch)
		spanApply.End()
		hPatchApplyTopo.ObserveSince(applyStart)
	}

	switch {
	case force:
		// Convergence is at stake: never defer to a background build.
		spanCompact := tr.Start("delta.compact")
		compacted, rescaled, cerr := e.compactNow()
		spanCompact.End()
		if cerr != nil {
			return meta, cerr
		}
		meta.Compacted, meta.Rescaled = compacted, rescaled
	case next.PatchedFraction() > e.compactFraction():
		if e.eopts.AsyncCompact {
			meta.CompactPending = e.startAsyncCompact()
		} else {
			spanCompact := tr.Start("delta.compact")
			compacted, rescaled, cerr := e.compactNow()
			spanCompact.End()
			if cerr != nil {
				return meta, cerr
			}
			meta.Compacted, meta.Rescaled = compacted, rescaled
		}
	}
	return meta, nil
}

// sketchDelta is one effective edge-weight change of a mutation batch,
// queued for the incremental summary update.
type sketchDelta struct {
	u, v int
	dw   float64
}

// sketchDriftFraction bounds the cumulative |Δw| the first-order
// ApplyEdgeDelta updates may fold into the cached sketches, relative to
// the live undirected edge count, before accuracy demands a fresh
// summarization (the updates drop O(Δw²) terms and leave N⁽ℓ⁾ frozen).
const sketchDriftFraction = 0.05

// applySketchDeltas folds a mutation batch into the cached summaries in
// place — O(ℓmax²·k²) per mutation, independent of n and m — and marks
// them current for the post-batch label generation, so the next estimator
// run reuses them without summarizing or compacting anything. If the
// cache is cold, from another generation, lacks the retained N matrices,
// or the accumulated drift passes the accuracy bound, the cache is
// dropped instead and the next estimator summarizes the live overlay.
// The caller holds patchMu (seed writers are excluded).
func (e *Engine) applySketchDeltas(oldGen, newGen int64, seeds []int, liveEdges int, deltas []sketchDelta) {
	if len(deltas) == 0 {
		return
	}
	e.sumMu.Lock()
	defer e.sumMu.Unlock()
	if e.sums == nil || e.sums.N == nil || e.sumGen != oldGen {
		return
	}
	var drift float64
	for _, d := range deltas {
		drift += math.Abs(d.dw)
	}
	if e.sumDrift+drift > sketchDriftFraction*float64(liveEdges) {
		e.setSumsLocked(nil)
		return
	}
	for _, d := range deltas {
		if err := e.sums.ApplyEdgeDelta(seeds, d.u, d.v, d.dw); err != nil {
			e.setSumsLocked(nil)
			return
		}
	}
	e.sumDrift += drift
	e.sumGen = newGen
	e.nSketchUpdates.Add(int64(len(deltas)))
	engSketchApplies.Add(int64(len(deltas)))
}

// compactFraction returns the configured overlay-share compaction trigger.
func (e *Engine) compactFraction() float64 {
	if e.eopts.CompactFraction > 0 {
		return e.eopts.CompactFraction
	}
	return defaultCompactFraction
}

// contractionGuardTrippedLocked bounds the spectral drift of the pinned ε:
// ρ(W') ≤ ρ(W_base) + ρ(ΔW) with the overlay's Gershgorin bound on ρ(ΔW),
// so the effective convergence parameter is at most s·(1 + bound/ρ_base).
// Callers hold e.mu.
func (e *Engine) contractionGuardTrippedLocked(t *delta.Graph) bool {
	bound := t.RhoDeltaBound()
	if bound == 0 {
		return false
	}
	if e.rhoW == 0 {
		return true // base had no edges; ε was degenerate — re-derive
	}
	return e.eopts.S*(1+bound/e.rhoW) > contractionGuard
}

// fillTopoDims stamps the live dimensions and overlay fraction on meta.
func (e *Engine) fillTopoDims(meta *MutateMeta) {
	ts := e.TopoStats()
	meta.Nodes, meta.Edges, meta.OverlayFraction = ts.Nodes, ts.Edges, ts.OverlayFraction
}

// CompactTopology forces a compaction of the delta overlay regardless of
// the overlay-fraction trigger: the merged CSR is swapped in under the
// write lock, ρ(W)/ε are re-derived canonically, and the residual state
// is rescaled and re-converged. A no-op (Compacted=false) when the overlay
// is clean.
func (e *Engine) CompactTopology() (MutateMeta, error) {
	e.patchMu.Lock()
	defer e.patchMu.Unlock()
	var meta MutateMeta
	compacted, rescaled, err := e.compactNow()
	if err != nil {
		return meta, err
	}
	meta.Compacted, meta.Rescaled = compacted, rescaled
	e.fillTopoDims(&meta)
	return meta, nil
}

// maxRescale bounds the ε ratio the residual rescale path will converge
// incrementally; a larger jump (pathological topologies, a degenerate old
// ρ) drops the residual state instead, and the next query re-solves.
const maxRescale = 0.5

// compactNow merges the overlay into a fresh canonical CSR and installs it
// as the new epoch, synchronously: the merge and the ρ(W) Lanczos bracket
// run outside the engine locks (the overlay epoch is immutable and
// patchMu — held by the caller — excludes other mutators), then
// installEpoch swaps the result in.
func (e *Engine) compactNow() (compacted, rescaled bool, err error) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return false, false, ErrEngineClosed
	}
	topo := e.topo
	e.mu.RUnlock()
	if topo == nil || !topo.Dirty() {
		return false, false, nil
	}
	start := telemetry.Now()
	csr := topo.Compact()
	rhoNew := csr.SpectralRadiusCached()
	installed, rescaled := e.installEpoch(topo, csr, rhoNew)
	if !installed {
		// patchMu (held by the caller) excludes every other epoch producer,
		// so a refused install means the engine closed mid-build.
		return false, false, ErrEngineClosed
	}
	engCompactionsSync.Inc()
	hCompactSync.ObserveSince(start)
	return true, rescaled, nil
}

// installEpoch publishes the compacted successor of the frozen epoch: csr
// is the canonical merge of frozen's edge set and rhoNew its spectral
// radius, both built by the caller with no engine lock held. The LIVE
// epoch — which on the async path kept accepting mutations stacked on
// frozen while the build ran — is rebased onto the new CSR
// (delta.Rebase: post-capture patch rows carry over, everything else
// reads through), ρ(W)/ε move to the canonical values, and the residual
// state is rescaled closed-form under the write lock with its
// re-convergence flushing outside the locks like any other patch. On the
// synchronous path the live epoch IS frozen and the rebase degenerates to
// an empty overlay. Returns installed=false when the engine closed or a
// competing compaction already replaced the base epoch (the caller's
// build is stale and simply discarded). The caller must hold patchMu.
func (e *Engine) installEpoch(frozen *delta.Graph, csr *sparse.CSR, rhoNew float64) (installed, rescaled bool) {
	newGraph := graph.FromCSR(csr)
	e.mu.Lock()
	if e.closed || e.topo == nil || e.topo.Base() != frozen.Base() {
		e.mu.Unlock()
		return false, false
	}
	// The swap latency metric covers exactly the write-lock hold: this is
	// the reader-visible stall an epoch install costs.
	swapStart := telemetry.Now()
	newTopo := e.topo.Rebase(frozen, csr)
	rhoOld := e.rhoW
	e.topo = newTopo
	e.g = newGraph
	e.rhoW = rhoNew
	e.epochAt = time.Now()
	e.gen++
	e.nCompactions.Add(1)
	res := e.res
	if res != nil {
		switch {
		case rhoNew == rhoOld:
			// Bit-equal ρ (e.g. a balanced add/remove churn): ε unchanged.
		case rhoOld == 0 || rhoNew == 0 ||
			math.Abs(rhoOld/rhoNew-1) > maxRescale ||
			math.IsNaN(rhoOld/rhoNew) || math.IsInf(rhoOld/rhoNew, 0):
			// ε jump too large to reconcile incrementally: re-solve lazily.
			e.res = nil
			res = nil
			e.nResidualFallbacks.Add(1)
		default:
			// ε_new/ε_old = rhoOld/rhoNew; the live adjacency is unchanged
			// by the rebase, so the closed-form rescale math is identical
			// for sync and async installs.
			res.SetAdj(newTopo)
			res.Rescale(rhoOld / rhoNew)
			rescaled = true
			e.nRescales.Add(1)
		}
		if res != nil && !rescaled {
			res.SetAdj(newTopo)
		}
	}
	e.mu.Unlock()
	hEpochSwap.ObserveSince(swapStart)

	if rescaled {
		// Re-converge to the rescaled fixed point outside the locks.
		patch := res.BeginPatch()
		e.flushSession(patch)
		e.commitSession(res, patch)
	}
	return true, rescaled
}

// startAsyncCompact launches the background compactor for the current
// epoch unless one is already in flight, and reports whether a build is
// pending afterwards. The caller holds patchMu.
func (e *Engine) startAsyncCompact() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.topo == nil || !e.topo.Dirty() {
		return false
	}
	if e.compacting {
		return true // the running build will pick up a still-dirty overlay
	}
	e.compacting = true
	go e.runAsyncCompact(e.topo)
	return true
}

// runAsyncCompact is the background compactor: it merges the frozen epoch
// and runs the ρ(W) Lanczos bracket entirely lock-free (the epoch is
// immutable — mutations land in fresh overlays stacked on top meanwhile),
// then takes patchMu like any mutator and swaps the build in. A stale
// build (the engine closed, or the contraction guard forced a synchronous
// compaction first) is discarded; Close never waits for this goroutine —
// it aborts at the swap via the closed check. A panic in the lock-free
// build is recovered, not fatal: nothing was published, so the overlay
// stays live, the panic is kept for TopoStats, and the next batch that
// trips the threshold builds again.
func (e *Engine) runAsyncCompact(frozen *delta.Graph) {
	start := telemetry.Now()
	csr, rhoNew, fault := buildEpoch(frozen)
	if fault == "" {
		e.patchMu.Lock()
		installed, _ := e.installEpoch(frozen, csr, rhoNew)
		e.patchMu.Unlock()
		if installed {
			e.nAsyncCompactions.Add(1)
			engCompactionsAsync.Inc()
			hCompactAsync.ObserveSince(start)
		}
	}
	e.mu.Lock()
	e.compacting = false
	e.compactPanic = fault
	e.mu.Unlock()
	e.compactCond.Broadcast()
}

// compactFault, when set, runs inside buildEpoch between the merge and
// ρ(W); tests use it to make the background build panic. Nil in
// production.
var compactFault func()

// buildEpoch is the background compactor's lock-free build: the canonical
// CSR of frozen's edge set and its spectral radius. A panic in it is
// recovered and described in fault, which is empty on success.
func buildEpoch(frozen *delta.Graph) (csr *sparse.CSR, rho float64, fault string) {
	defer func() {
		if v := recover(); v != nil {
			fault = fmt.Sprint("compactor panic: ", v)
		}
	}()
	csr = frozen.Compact()
	if compactFault != nil {
		compactFault()
	}
	return csr, csr.SpectralRadiusCached(), ""
}

// WaitCompaction blocks until no background compaction is in flight; it
// returns immediately on engines without AsyncCompact (or with nothing
// pending). Deterministic tests and drain paths use it — serving never
// needs to.
func (e *Engine) WaitCompaction() {
	e.mu.Lock()
	for e.compacting {
		e.compactCond.Wait()
	}
	e.mu.Unlock()
}

// TopoStats is the live view of a mutable topology for admin surfaces.
type TopoStats struct {
	// Nodes / Edges are the live dimensions (they track node additions and
	// edge mutations).
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// OverlayFraction is the share of stored adjacency entries living in
	// the copy-on-write delta overlay — the distance to the next
	// compaction.
	OverlayFraction float64 `json:"overlay_fraction,omitempty"`
	// EdgeMutations / Compactions count applied edge mutations and overlay
	// compactions over the engine's lifetime; AsyncCompactions is the
	// subset built off-thread and installed by epoch swap.
	EdgeMutations    int64 `json:"edge_mutations,omitempty"`
	Compactions      int64 `json:"compactions,omitempty"`
	AsyncCompactions int64 `json:"async_compactions,omitempty"`
	// Compacting reports a background compactor currently building the
	// next epoch.
	Compacting bool `json:"compacting,omitempty"`
	// CompactPanic reports the panic that ended the last background
	// build ("compactor panic: " and the panic value), recovered: the
	// overlay stayed live and the next trip of the threshold builds
	// again. Empty after a build that did not panic.
	CompactPanic string `json:"compact_panic,omitempty"`
}

// TopoStats reports the engine's live topology dimensions and mutation
// counters; the registry refreshes GraphInfo from it at request release.
func (e *Engine) TopoStats() TopoStats {
	ts := TopoStats{
		EdgeMutations:    e.nEdgeMutations.Load(),
		Compactions:      e.nCompactions.Load(),
		AsyncCompactions: e.nAsyncCompactions.Load(),
	}
	e.mu.RLock()
	ts.Compacting, ts.CompactPanic = e.compacting, e.compactPanic
	if e.topo != nil {
		ts.Nodes = e.topo.Dim()
		ts.Edges = e.topo.UndirectedEdges()
		ts.OverlayFraction = e.topo.PatchedFraction()
	} else { // closed: the last compacted graph
		ts.Nodes, ts.Edges = e.g.N, e.g.M
	}
	e.mu.RUnlock()
	return ts
}

// Dims returns the live (nodes, edges) dimensions.
func (e *Engine) Dims() (n, m int) {
	ts := e.TopoStats()
	return ts.Nodes, ts.Edges
}

// ReleaseTransient drops the engine's rebuildable working state — the
// residual solver state and the cached summaries — while keeping everything
// whose loss would force a cold rebuild: the graph (CSR plus delta overlay),
// the seed labels and the H estimate. The next query re-solves with ONE
// propagation — o(build), not o(parse+estimate+build) — and no acknowledged
// mutation (labels, H, topology) is lost, so the registry may partially
// release ANY engine, mutated or not. It takes mu only, never the writer
// mutex (the registry calls it under its own lock): a session in flight
// finds its state gone at commit and is discarded. Returns the post-release
// footprint.
func (e *Engine) ReleaseTransient() int64 {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0
	}
	e.res = nil
	e.mu.Unlock()
	e.sumMu.Lock()
	e.setSumsLocked(nil)
	e.sumMu.Unlock()
	return e.MemoryFootprint()
}
