// Package registry is the multi-tenant core of the serving layer: a
// concurrent registry mapping graph names to lazily-built factorgraph
// Engines. It provides
//
//   - admission by spec (synthetic planted-partition, server-side files,
//     or an inline upload whose raw bytes are retained for rebuilds),
//   - singleflight build deduplication, so N concurrent first requests
//     for a cold graph trigger exactly one engine build,
//   - an LRU with a configurable memory budget (engine footprints are
//     estimated from n, m, k) that evicts cold engines while refcounts
//     pin the ones serving in-flight requests, and
//   - per-graph statistics (hits, builds, evictions, last access) for
//     the admin endpoint.
//
// Eviction is transparent: the spec stays registered, so the next access
// rebuilds the engine as if it were the first.
package registry

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"factorgraph"
	"factorgraph/internal/telemetry"
)

// ErrNotFound is wrapped by lookups of unregistered graph names; the HTTP
// layer maps it to 404.
var ErrNotFound = errors.New("graph not found")

// ErrExists is wrapped by registrations of an already-taken name; the HTTP
// layer maps it to 409.
var ErrExists = errors.New("graph already exists")

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Options configures a Registry.
type Options struct {
	// MemoryBudget is the target resident budget in bytes — built engines
	// plus retained inline-upload payloads; 0 means unlimited. The budget
	// is soft in three ways: an in-flight (pinned) engine is never evicted
	// even while over budget, a mutated engine (label patches, installed
	// H) is never evicted because its spec rebuild would silently lose the
	// mutations, and a single engine larger than the whole budget is still
	// admitted (it just evicts everything else that is cold). Inline
	// payloads count against the budget for as long as the graph is
	// registered but can only be released by DELETE, not eviction.
	MemoryBudget int64
}

// Registry is safe for concurrent use by the HTTP handlers.
type Registry struct {
	mu       sync.Mutex
	entries  map[string]*entry
	resident int64  // sum of built engines' mem estimates
	budget   int64  // 0 = unlimited
	tick     uint64 // monotonic access counter driving the LRU order

	// hooks are the lifecycle callbacks the serve layer wires per-graph
	// telemetry through (atomic so SetHooks never contends with releases).
	hooks atomic.Pointer[Hooks]

	// builder is swapped out by tests to count or fail builds.
	builder func(Spec) (*factorgraph.Engine, error)
}

// Hooks are optional lifecycle callbacks for per-graph state owned by the
// layers above the registry — the serve layer drops a graph's metric
// series and timeline history through them.
type Hooks struct {
	// OnForget fires when a graph's per-name state must be dropped: on
	// DELETE, on a tier-2 (full) eviction, and again at the deferred
	// engine close when a DELETE raced in-flight requests (so series a
	// pinned request re-created between the two cannot leak). It runs
	// under the registry lock — keep it fast and never call back into the
	// registry.
	OnForget func(name string)
}

// SetHooks installs the lifecycle callbacks; call it during wiring,
// before traffic. Passing a zero Hooks clears them.
func (r *Registry) SetHooks(h Hooks) { r.hooks.Store(&h) }

func (r *Registry) onForgetLocked(name string) {
	if h := r.hooks.Load(); h != nil && h.OnForget != nil {
		h.OnForget(name)
	}
}

type entry struct {
	name        string
	spec        Spec
	rebuildable bool // spec-backed; RegisterEngine entries cannot rebuild

	engine   *factorgraph.Engine // nil ⇒ cold (not built or evicted)
	building chan struct{}       // non-nil while a build is in flight
	buildErr error               // outcome of the most recent build
	refs     int                 // in-flight acquisitions pinning engine
	deleted  bool                // removed from the map; close on last release
	mem      int64               // engine footprint counted in resident
	specMem  int64               // retained inline payload bytes (freed only by Delete)

	nodes, edges, classes int // known dimensions (0 until discoverable)

	// lastH is the engine's compatibility estimate captured at eviction
	// (k×k — a few hundred bytes). Rebuilds install it via the spec's
	// presetH, cutting rebuild cost from estimation + propagation to one
	// propagation. Freed with the entry on Delete.
	lastH       *factorgraph.Matrix
	lastHMethod string

	// shed marks an engine partially released under memory pressure
	// (residual solver state dropped, CSR and delta overlay kept); cleared on
	// the next acquisition. partials counts them.
	shed     bool
	partials int64

	// topo is the engine's live topology view (dimensions, mutation
	// counters, overlay fraction), refreshed at request release like mem.
	topo factorgraph.TopoStats

	hits, builds, evictions int64
	lastTick                uint64 // registry tick of the last acquisition
	lastAccess              time.Time
	registered              time.Time
}

// New builds an empty registry.
func New(opts Options) *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		budget:  opts.MemoryBudget,
		builder: buildEngine,
	}
}

func validateName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("registry: invalid graph name %q (want 1-64 chars of [A-Za-z0-9._-])", name)
	}
	return nil
}

// Register admits a named graph by spec without building its engine; the
// first Acquire builds lazily. Inline uploads are parsed (and rejected)
// here, so a registered spec is expected to build.
func (r *Registry) Register(name string, spec Spec) (GraphInfo, error) {
	if err := validateName(name); err != nil {
		return GraphInfo{}, err
	}
	if err := spec.validate(); err != nil {
		return GraphInfo{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return GraphInfo{}, fmt.Errorf("registry: %w: %q", ErrExists, name)
	}
	e := &entry{name: name, spec: spec, rebuildable: true, registered: time.Now()}
	e.nodes, e.edges, e.classes = spec.dims()
	if spec.Inline != nil {
		// The raw upload is retained for transparent rebuilds, so it is
		// resident memory the budget must see (eviction cannot free it —
		// only DELETE can).
		e.specMem = int64(len(spec.Inline.Edges) + len(spec.Inline.Labels))
		r.resident += e.specMem
	}
	r.entries[name] = e
	r.evictLocked()
	r.syncGaugesLocked()
	return r.infoLocked(e), nil
}

// RegisterEngine admits a pre-built engine under name. Such entries have no
// spec to rebuild from, so they are never evicted (their footprint still
// counts against the budget); cmd/serve uses this for engines it builds
// eagerly at boot.
func (r *Registry) RegisterEngine(name string, eng *factorgraph.Engine) error {
	if err := validateName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("registry: %w: %q", ErrExists, name)
	}
	g := eng.Graph()
	e := &entry{
		name: name, engine: eng, mem: eng.MemoryFootprint(),
		nodes: g.N, edges: g.M, classes: eng.K(), registered: time.Now(),
	}
	r.entries[name] = e
	r.resident += e.mem
	r.touchLocked(e)
	r.evictLocked()
	r.syncGaugesLocked()
	return nil
}

// Acquire resolves name to its engine, building it if cold, and pins it
// against eviction until the returned release function is called (release
// is idempotent). Concurrent acquisitions of the same cold graph share one
// build; the losers of that race block until it completes.
func (r *Registry) Acquire(name string) (*factorgraph.Engine, func(), error) {
	r.mu.Lock()
	for {
		e, ok := r.entries[name]
		if !ok {
			r.mu.Unlock()
			return nil, nil, fmt.Errorf("registry: %w: %q", ErrNotFound, name)
		}
		if e.engine != nil {
			eng := e.engine
			e.refs++
			e.hits++
			r.touchLocked(e)
			r.mu.Unlock()
			return eng, r.releaseFunc(e, eng), nil
		}
		if e.building != nil {
			// Another goroutine is building this engine; wait for it and
			// re-evaluate. A successful build is taken on the next loop
			// iteration; a failed one is reported to every waiter without
			// a rebuild stampede.
			mCoalesces.Inc()
			ch := e.building
			r.mu.Unlock()
			<-ch
			r.mu.Lock()
			if cur, ok := r.entries[name]; ok && cur == e &&
				e.engine == nil && e.building == nil && e.buildErr != nil {
				err := e.buildErr
				r.mu.Unlock()
				return nil, nil, err
			}
			continue
		}
		// This goroutine becomes the builder. The build runs outside the
		// registry lock — it is the expensive O(mkℓ) preprocessing — with
		// the channel signalling completion to concurrent waiters.
		ch := make(chan struct{})
		e.building = ch
		spec := e.spec
		// A rebuild after eviction reuses the H persisted from the evicted
		// engine, skipping the estimator pass.
		spec.presetH, spec.presetHMethod = e.lastH, e.lastHMethod
		r.mu.Unlock()

		buildStart := telemetry.Now()
		eng, err := r.builder(spec)
		hBuild.ObserveSince(buildStart)

		r.mu.Lock()
		e.building = nil
		e.buildErr = err
		close(ch)
		if err != nil {
			r.mu.Unlock()
			return nil, nil, fmt.Errorf("registry: building graph %q: %w", name, err)
		}
		if cur, ok := r.entries[name]; !ok || cur != e {
			// Deleted (or replaced) while building; discard the result.
			r.mu.Unlock()
			eng.Close()
			return nil, nil, fmt.Errorf("registry: %w: %q (deleted during build)", ErrNotFound, name)
		}
		g := eng.Graph()
		e.engine = eng
		e.mem = eng.MemoryFootprint()
		e.nodes, e.edges, e.classes = g.N, g.M, eng.K()
		e.builds++
		mBuilds.Inc()
		e.refs++
		r.resident += e.mem
		r.touchLocked(e)
		r.evictLocked()
		r.syncGaugesLocked()
		r.mu.Unlock()
		return eng, r.releaseFunc(e, eng), nil
	}
}

// AcquireIfBuilt pins and returns the engine only if it is currently
// resident; it never triggers a build. Liveness probes use this so that
// GET /healthz cannot set off a multi-second engine build. The access is
// not counted as a hit and does not refresh the LRU position.
func (r *Registry) AcquireIfBuilt(name string) (*factorgraph.Engine, func(), bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok || e.engine == nil {
		return nil, nil, false
	}
	e.refs++
	return e.engine, r.releaseFunc(e, e.engine), true
}

// Delete unregisters a graph. An engine with in-flight requests stays
// usable for them and is closed when the last one releases; its footprint
// stops counting against the budget immediately.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("registry: %w: %q", ErrNotFound, name)
	}
	delete(r.entries, name)
	e.deleted = true
	r.resident -= e.specMem
	e.specMem = 0
	if e.engine != nil {
		r.resident -= e.mem
		e.mem = 0
		if e.refs == 0 {
			e.engine.Close()
			e.engine = nil
		}
	}
	r.onForgetLocked(name)
	r.syncGaugesLocked()
	return nil
}

// releaseFunc returns the idempotent unpin closure handed out by Acquire.
func (r *Registry) releaseFunc(e *entry, eng *factorgraph.Engine) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			// The request may have grown (patch promoted a residual tier,
			// edge mutations grew the delta overlay) or shrunk (tier
			// demoted, compaction) the engine; measure BEFORE taking
			// r.mu — MemoryFootprint takes the engine's own read lock, and
			// holding the registry-global mutex while waiting on one
			// tenant's engine lock would stall every other tenant. The
			// engine is still pinned by our ref, so it cannot be closed
			// under us; applyMemLocked re-checks it is still installed.
			m := eng.MemoryFootprint()
			ts := eng.TopoStats()
			r.mu.Lock()
			e.refs--
			if e.deleted && e.refs == 0 && e.engine != nil {
				e.engine.Close()
				e.engine = nil
				// A request or health read that held this pin may have
				// re-created series a racing DELETE already forgot; forget
				// again now that the last pin is gone.
				r.onForgetLocked(e.name)
			}
			if e.engine == eng && !e.deleted {
				e.topo = ts
				if ts.Nodes > 0 {
					e.nodes, e.edges = ts.Nodes, ts.Edges
				}
			}
			r.applyMemLocked(e, eng, m)
			r.evictLocked()
			r.syncGaugesLocked()
			r.mu.Unlock()
		})
	}
}

func (r *Registry) touchLocked(e *entry) {
	r.tick++
	e.lastTick = r.tick
	e.lastAccess = time.Now()
	e.shed = false // re-acquired: transient state rebuilds on use
}

// applyMemLocked folds a footprint measurement (taken OUTSIDE r.mu — see
// releaseFunc) into the registry's resident total, provided the entry
// still holds the engine it was measured on. Engine footprints move at
// runtime — the residual tier promotes and demotes, the solver state is
// released and re-solved — and the budget (plus /v1/admin/registry) must see
// the tier actually in use, not the build-time estimate.
func (r *Registry) applyMemLocked(e *entry, eng *factorgraph.Engine, m int64) {
	if e.engine != eng || e.engine == nil || e.deleted {
		return
	}
	if m != e.mem {
		r.resident += m - e.mem
		e.mem = m
	}
}

// evictLocked reclaims memory in two tiers until the resident estimate
// fits the budget.
//
// Tier 1 — partial release: the LRU engine's transient working state
// (residual solver state, caches) is dropped while the CSR (plus delta
// overlay), seeds and H stay resident. No acknowledged state is lost, so
// EVERY cold engine qualifies — mutated and non-rebuildable ones included —
// and the next access re-solves with one propagation: o(build), not
// o(parse+build).
//
// Tier 2 — full eviction: least-recently-used cold engines are closed
// outright. Pinned (refs > 0), non-rebuildable and mutated engines are
// skipped: evicting the first would close an engine mid-request, evicting
// the second would lose the graph for good, and evicting the third would
// silently roll back acknowledged label patches, an installed H, or
// streamed topology mutations (the spec rebuild restores construction
// state only).
func (r *Registry) evictLocked() {
	if r.budget <= 0 {
		return
	}
	for r.resident > r.budget {
		var victim *entry
		for _, e := range r.entries {
			if e.engine == nil || e.refs > 0 || e.shed {
				continue
			}
			if victim == nil || e.lastTick < victim.lastTick {
				victim = e
			}
		}
		if victim == nil {
			break // everything resident is pinned or already shed
		}
		// ReleaseTransient takes the engine's own lock briefly (row swaps
		// only, never propagation) — same trade Close makes below.
		m := victim.engine.ReleaseTransient()
		victim.shed = true
		victim.partials++
		mEvictPartial.Inc()
		r.resident += m - victim.mem
		victim.mem = m
	}
	for r.resident > r.budget {
		var victim *entry
		for _, e := range r.entries {
			if e.engine == nil || e.refs > 0 || !e.rebuildable || e.engine.Mutated() {
				continue
			}
			if victim == nil || e.lastTick < victim.lastTick {
				victim = e
			}
		}
		if victim == nil {
			return // everything resident is pinned or unevictable
		}
		// Persist the engine's H (k×k) before dropping it: the next access
		// then rebuilds with one propagation instead of re-estimating.
		// Victims are never mutated (see the skip above), so this H is the
		// one the spec's own seeds produced.
		if est := victim.engine.Estimate(); est != nil && est.H != nil {
			victim.lastH, victim.lastHMethod = est.H.Clone(), est.Method
		}
		victim.engine.Close()
		victim.engine = nil
		r.resident -= victim.mem
		victim.mem = 0
		victim.evictions++
		mEvictFull.Inc()
		// The graph stays registered but its engine is gone; per-graph
		// series drop with it and reappear on the rebuild's first use.
		r.onForgetLocked(victim.name)
	}
}

// GraphInfo is the externally visible state of one registered graph.
type GraphInfo struct {
	Name    string `json:"name"`
	State   string `json:"state"`  // built | building | cold
	Source  string `json:"source"` // synthetic | files | inline | engine
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Classes int    `json:"classes"`
	// Evictable is false for pre-built (RegisterEngine) entries.
	Evictable bool `json:"evictable"`
	// Mutated marks a resident engine whose labels or H were changed
	// after build; such engines are pinned against eviction (a spec
	// rebuild would lose the mutations — DELETE and re-admit to release).
	Mutated bool `json:"mutated,omitempty"`
	// HRetained marks a graph whose last compatibility estimate survived
	// an eviction: the next (re)build skips estimation.
	HRetained bool `json:"h_retained,omitempty"`
	// Shed marks a resident engine whose transient working state was
	// partially released under memory pressure (tier-1 eviction): the CSR
	// and delta overlay are still resident, the next query re-solves.
	// PartialReleases counts how often that happened.
	Shed            bool  `json:"shed,omitempty"`
	PartialReleases int64 `json:"partial_releases,omitempty"`
	// EdgeMutations / TopoCompactions / OverlayFraction describe the
	// streaming-mutation state of the engine (PATCH /edges): applied edge
	// mutations, delta-overlay compactions, and the live share of
	// adjacency entries in the overlay. Refreshed at request release.
	EdgeMutations   int64   `json:"edge_mutations,omitempty"`
	TopoCompactions int64   `json:"topo_compactions,omitempty"`
	OverlayFraction float64 `json:"overlay_fraction,omitempty"`
	// AsyncCompactions counts compactions built by the engine's background
	// compactor; Compacting reports one currently in flight (async_compact
	// graphs only). Refreshed at request release like the fields above.
	AsyncCompactions int64 `json:"async_compactions,omitempty"`
	Compacting       bool  `json:"compacting,omitempty"`
	Refs             int   `json:"refs"`
	MemBytes         int64 `json:"mem_bytes"`
	SpecBytes        int64 `json:"spec_bytes,omitempty"`
	Hits             int64 `json:"hits"`
	Builds           int64 `json:"builds"`
	Evictions        int64 `json:"evictions"`
	// LastAccessUnixMS is 0 until the graph is first acquired.
	LastAccessUnixMS int64 `json:"last_access_unix_ms,omitempty"`
	RegisteredUnixMS int64 `json:"registered_unix_ms"`
}

// infoLocked reports e.mem as-is: footprints are re-measured at every
// request release (see releaseFunc), deliberately NOT here — measuring
// takes the engine's own lock, and the admin/listing paths must not hold
// the registry-global mutex while waiting on one tenant's engine.
func (r *Registry) infoLocked(e *entry) GraphInfo {
	state := "cold"
	switch {
	case e.engine != nil:
		state = "built"
	case e.building != nil:
		state = "building"
	}
	info := GraphInfo{
		Name: e.name, State: state, Source: e.spec.source(),
		Nodes: e.nodes, Edges: e.edges, Classes: e.classes,
		Evictable: e.rebuildable, Refs: e.refs,
		MemBytes: e.mem, SpecBytes: e.specMem,
		Hits: e.hits, Builds: e.builds, Evictions: e.evictions,
		RegisteredUnixMS: e.registered.UnixMilli(),
	}
	info.HRetained = e.lastH != nil
	info.Shed = e.shed && e.engine != nil
	info.PartialReleases = e.partials
	info.EdgeMutations = e.topo.EdgeMutations
	info.TopoCompactions = e.topo.Compactions
	info.OverlayFraction = e.topo.OverlayFraction
	info.AsyncCompactions = e.topo.AsyncCompactions
	info.Compacting = e.topo.Compacting
	if e.engine != nil {
		info.Mutated = e.engine.Mutated()
	}
	if !e.lastAccess.IsZero() {
		info.LastAccessUnixMS = e.lastAccess.UnixMilli()
	}
	return info
}

// Info returns the state of one graph.
func (r *Registry) Info(name string) (GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return GraphInfo{}, fmt.Errorf("registry: %w: %q", ErrNotFound, name)
	}
	return r.infoLocked(e), nil
}

// List returns the state of every registered graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, r.infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats is the registry-wide aggregate for the admin endpoint.
type Stats struct {
	Graphs        int   `json:"graphs"`
	Built         int   `json:"built"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"` // 0 = unlimited
	Hits          int64 `json:"hits"`
	Builds        int64 `json:"builds"`
	Evictions     int64 `json:"evictions"`
	// PartialReleases counts tier-1 evictions: transient state shed with
	// the CSR kept resident (rebuild is o(build), not o(parse+build)).
	PartialReleases int64 `json:"partial_releases"`
	// EdgeMutations aggregates streamed topology mutations across graphs.
	EdgeMutations int64 `json:"edge_mutations"`
}

// Stats aggregates the per-graph counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{Graphs: len(r.entries), ResidentBytes: r.resident, BudgetBytes: r.budget}
	for _, e := range r.entries {
		if e.engine != nil {
			s.Built++
		}
		s.Hits += e.hits
		s.Builds += e.builds
		s.Evictions += e.evictions
		s.PartialReleases += e.partials
		s.EdgeMutations += e.topo.EdgeMutations
	}
	return s
}
