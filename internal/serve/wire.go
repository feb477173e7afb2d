package serve

import (
	"fmt"
	"strconv"

	"factorgraph"
	"factorgraph/internal/registry"
	"factorgraph/internal/telemetry"
)

// Wire types for the JSON HTTP API. Node ids inside JSON object keys are
// decimal strings (JSON has no integer keys); everything else is numeric.

// CreateGraphRequest is the body of POST /v1/graphs. Exactly one of
// Synthetic, Files or Inline selects the graph source.
type CreateGraphRequest struct {
	// Name is the registry key; per-graph routes address it as
	// /v1/graphs/{name}/... (1-64 chars of [A-Za-z0-9._-]).
	Name string `json:"name"`
	// K is the class count; 0 infers it from the labels (files/inline) or
	// uses the 3-class demo default (synthetic).
	K int `json:"k"`
	// Estimator selects the engine's sketch estimator: dcer (default), dce
	// or mce; any other name is a 400.
	Estimator string `json:"estimator"`
	// ResidualTol is the per-node residual tolerance beliefs are served
	// to (0 = the engine default, 1e-8).
	ResidualTol float64 `json:"residual_tol"`
	// ResidualEdgeBudget bounds the sparse-tier push pass at this multiple
	// of the graph's stored edges; past it the session promotes and prices
	// every round on its own (0 = the engine default, 4).
	ResidualEdgeBudget float64 `json:"residual_edge_budget"`
	// CompactFraction is the share of adjacency entries allowed in the
	// streaming-mutation delta overlay before a PATCH /edges batch
	// triggers compaction (0 = the engine default, 0.25).
	CompactFraction float64 `json:"compact_fraction"`
	// AsyncCompact runs overlay compactions in the background: the
	// triggering PATCH /edges batch returns immediately (compacting=true)
	// while the merged CSR and ρ(W) are built off the request path, and
	// mutations keep landing in a fresh overlay meanwhile.
	AsyncCompact bool `json:"async_compact"`
	// Synthetic plants a partition graph with the paper's generator.
	Synthetic *SyntheticGraphSpec `json:"synthetic"`
	// Files loads TSV files from the server's filesystem.
	Files *FilesGraphSpec `json:"files"`
	// Inline carries the graph in the request body.
	Inline *InlineGraphSpec `json:"inline"`
	// Warm builds the engine before responding instead of lazily on the
	// first query; a failed build unregisters the graph again.
	Warm bool `json:"warm"`
}

// SyntheticGraphSpec mirrors registry.SyntheticSpec on the wire. Omitted
// (or zero) skew and f select the defaults 3 and 0.05 — zero-skew or
// seedless graphs are not expressible, as no engine could serve them.
type SyntheticGraphSpec struct {
	N    int     `json:"n"`
	M    int     `json:"m"`
	Skew float64 `json:"skew"`
	F    float64 `json:"f"`
	Seed uint64  `json:"seed"`
}

// FilesGraphSpec names server-side TSV files ("u\tv[\tw]" edges,
// "node\tlabel" labels).
type FilesGraphSpec struct {
	Edges  string `json:"edges"`
	Labels string `json:"labels"`
}

// InlineGraphSpec uploads a graph verbatim: the edge list and seed labels
// as TSV text. The server retains the payload so the graph can be rebuilt
// transparently after an LRU eviction.
type InlineGraphSpec struct {
	Edges  string `json:"edges"`
	Labels string `json:"labels"`
}

// Spec converts the wire request into a registry spec (which validates it
// at registration).
func (r *CreateGraphRequest) Spec() registry.Spec {
	spec := registry.Spec{
		K: r.K,
		Options: factorgraph.EngineOptions{
			Estimator:          r.Estimator,
			ResidualTol:        r.ResidualTol,
			ResidualEdgeBudget: r.ResidualEdgeBudget,
			CompactFraction:    r.CompactFraction,
			AsyncCompact:       r.AsyncCompact,
		},
	}
	if r.Synthetic != nil {
		spec.Synthetic = &registry.SyntheticSpec{
			N: r.Synthetic.N, M: r.Synthetic.M, Skew: r.Synthetic.Skew,
			F: r.Synthetic.F, Seed: r.Synthetic.Seed,
		}
	}
	if r.Files != nil {
		spec.Files = &registry.FileSpec{Edges: r.Files.Edges, Labels: r.Files.Labels}
	}
	if r.Inline != nil {
		spec.Inline = &registry.InlineSpec{
			Edges:  []byte(r.Inline.Edges),
			Labels: []byte(r.Inline.Labels),
		}
	}
	return spec
}

// GraphListResponse is the body of GET /v1/graphs.
type GraphListResponse struct {
	Count  int                  `json:"count"`
	Graphs []registry.GraphInfo `json:"graphs"`
}

// DeleteGraphResponse is the body of DELETE /v1/graphs/{name}.
type DeleteGraphResponse struct {
	Deleted string `json:"deleted"`
}

// AdminResponse is the body of GET /v1/admin/registry: registry totals
// (budget, resident bytes, aggregate hit/build/eviction counters) plus the
// per-graph breakdown.
type AdminResponse struct {
	Stats  registry.Stats       `json:"stats"`
	Graphs []registry.GraphInfo `json:"graphs"`
}

// ClassifyRequest is the body of POST /v1/graphs/{name}/classify.
type ClassifyRequest struct {
	// Nodes restricts the response; null/absent means all nodes.
	Nodes []int `json:"nodes"`
	// TopK attaches the top-k class scores per node (0 = labels only).
	TopK int `json:"top_k"`
	// ExtraSeeds overlays ephemeral seeds (node id → class, -1 clears) for
	// this query only.
	ExtraSeeds map[string]int `json:"extra_seeds"`
	// Stream switches the response to NDJSON: one NodeResult per line.
	// Recommended for large node sets / top-k responses.
	Stream bool `json:"stream"`
}

// Query converts the wire request into an engine query.
func (r *ClassifyRequest) Query() (factorgraph.Query, error) {
	q := factorgraph.Query{Nodes: r.Nodes, TopK: r.TopK}
	if r.TopK < 0 {
		return q, fmt.Errorf("top_k must be non-negative, got %d", r.TopK)
	}
	if len(r.ExtraSeeds) > 0 {
		q.ExtraSeeds = make(map[int]int, len(r.ExtraSeeds))
		for key, c := range r.ExtraSeeds {
			node, err := strconv.Atoi(key)
			if err != nil {
				return q, fmt.Errorf("extra_seeds key %q is not a node id", key)
			}
			q.ExtraSeeds[node] = c
		}
	}
	return q, nil
}

// ClassifyResponse is the non-streaming response of POST
// /v1/graphs/{name}/classify. The
// residual fields are present when the query was answered by the residual
// subsystem; pushed/cloned counts are non-zero for what-if (extra_seeds)
// queries and report the size of the perturbed frontier.
type ClassifyResponse struct {
	Count   int                      `json:"count"`
	Results []factorgraph.NodeResult `json:"results"`
	// Residual is true on every answer: all of them read the residual
	// subsystem (live fixed-point beliefs or a what-if's copy-on-write
	// session).
	Residual bool `json:"residual,omitempty"`
	// PushedNodes / TouchedEdges is the push work the what-if performed.
	PushedNodes  int `json:"pushed_nodes,omitempty"`
	TouchedEdges int `json:"touched_edges,omitempty"`
	// ClonedRows is how many belief rows the what-if's session held
	// privately: its frontier, or every row once it promoted to a dense
	// view.
	ClonedRows int `json:"cloned_rows,omitempty"`
	// FellBack reports that the what-if ran a whole-matrix round on its
	// private clone, exactly as a label patch's fell_back does.
	FellBack bool `json:"fell_back,omitempty"`
	// Certified reports that a label-only what-if (top_k 0, explicit
	// nodes) stopped its flush once a certified error bound proved every
	// queried label final, before the residual tolerance.
	Certified bool `json:"certified,omitempty"`
	// Stages is the per-stage time breakdown of how this query was served,
	// present when the request asked for it with ?debug=1 (non-streaming
	// only). Stage names name the engine path taken: overlay_flush for
	// what-if queries, residual_direct for plain reads of the live fixed
	// point, residual.init under either when the engine was cold and the
	// query paid the full solve, emit for result formatting.
	Stages []StageTiming `json:"stages,omitempty"`
}

// StageTiming is one entry of a debug=1 stage breakdown.
type StageTiming struct {
	Stage string  `json:"stage"`
	Us    float64 `json:"us"`
}

// EstimateRequest is the body of POST /v1/graphs/{name}/estimate.
type EstimateRequest struct {
	// Method selects the sketch estimator: dcer (default), dce or mce; any
	// other name is a 400.
	Method string `json:"method"`
	// LMax, Lambda, Restarts, Seed tune DCE/DCEr; zero values mean the
	// paper defaults (ℓmax=5, λ=10, 1/10 restarts). Options on mce, or a
	// negative lmax, are a 400.
	LMax     int     `json:"lmax"`
	Lambda   float64 `json:"lambda"`
	Restarts int     `json:"restarts"`
	Seed     uint64  `json:"seed"`
	// Apply installs the resulting H into the serving engine.
	Apply bool `json:"apply"`
}

// EstimateResponse reports an estimation result; H is row-major k×k.
type EstimateResponse struct {
	Method    string      `json:"method"`
	H         [][]float64 `json:"h"`
	RuntimeMS float64     `json:"runtime_ms"`
	Applied   bool        `json:"applied"`
}

// LabelsResponse is the body of GET /v1/graphs/{name}/labels.
type LabelsResponse struct {
	Count  int            `json:"count"`
	Labels map[string]int `json:"labels"`
}

// EdgesPatch is the JSON body of PATCH /v1/graphs/{name}/edges: a batched
// streaming topology mutation. Set entries are [u, v] or [u, v, w]
// (weight defaults to 1); Remove entries are [u, v]. AddNodes appends
// isolated nodes first (ids n..n+add_nodes-1), so Set may wire them in the
// same batch; one request may add at most 1<<20 nodes (400 past that, in
// either body format, before anything is allocated). Compact forces a delta-overlay compaction after the batch.
// The same endpoint also accepts Content-Type application/x-ndjson with
// one EdgeOp per line for streamed mutation feeds.
type EdgesPatch struct {
	AddNodes int         `json:"add_nodes"`
	Set      [][]float64 `json:"set"`
	Remove   [][]int     `json:"remove"`
	Compact  bool        `json:"compact"`
}

// EdgeOp is one NDJSON line of a streamed edges PATCH:
//
//	{"op":"set","u":1,"v":2}         upsert edge (weight 1)
//	{"op":"set","u":1,"v":2,"w":0.5} upsert weighted edge
//	{"op":"remove","u":1,"v":2}      delete edge
//	{"op":"add_nodes","count":3}     append isolated nodes
//	{"op":"compact"}                 force compaction after the batch
type EdgeOp struct {
	Op    string  `json:"op"`
	U     int     `json:"u"`
	V     int     `json:"v"`
	W     float64 `json:"w"`
	Count int     `json:"count"`
}

// EdgesPatchResponse reports how a topology mutation batch was applied:
// mode "residual" means the perturbation was repropagated in place by o(Δ)
// residual pushes seeded at the mutated endpoints; "full" means the engine
// was cold and the next query pays the (re-targeted) full solve.
// Compacted/rescaled report that the batch ended in a delta-overlay
// compaction and that the compaction moved ε (the beliefs were
// re-converged to the re-derived scaling). In-flight classify streams keep
// the beliefs of the epoch they started on; requests arriving after the
// response see the mutated topology.
type EdgesPatchResponse struct {
	Nodes          int    `json:"nodes"`
	Edges          int    `json:"edges"`
	AddedNodes     int    `json:"added_nodes,omitempty"`
	SetEdges       int    `json:"set_edges,omitempty"`
	RemovedEdges   int    `json:"removed_edges,omitempty"`
	MissingRemoves int    `json:"missing_removes,omitempty"`
	Mode           string `json:"mode"`
	PushedNodes    int    `json:"pushed_nodes,omitempty"`
	TouchedEdges   int    `json:"touched_edges,omitempty"`
	FellBack       bool   `json:"fell_back,omitempty"`
	Compacted      bool   `json:"compacted,omitempty"`
	Rescaled       bool   `json:"rescaled,omitempty"`
	// Compacting reports that this batch tripped the compaction threshold
	// on an async_compact graph: a background compactor is merging the
	// frozen epoch off the request path — this request did not pay it.
	Compacting      bool    `json:"compacting,omitempty"`
	OverlayFraction float64 `json:"overlay_fraction"`
}

// LabelsPatch is the body of PATCH /v1/graphs/{name}/labels: an
// incremental seed update.
type LabelsPatch struct {
	Set    map[string]int `json:"set"`
	Remove []int          `json:"remove"`
	// Reestimate re-runs the engine's estimator on the updated seeds (one
	// sketch+optimization pass; CSR and ρ(W) stay cached).
	Reestimate bool `json:"reestimate"`
}

// LabelsPatchResponse reports the post-update seed count and how the patch
// was propagated: mode "residual" means the change was pushed through the
// live residual state in o(Δ) (pushed_nodes/touched_edges quantify the
// perturbed neighborhood); mode "full" means the graph was cold (never
// queried, or released) and the next query pays the full propagation.
type LabelsPatchResponse struct {
	Labeled     int    `json:"labeled"`
	Reestimated bool   `json:"reestimated"`
	Mode        string `json:"mode"`
	// PushedNodes / TouchedEdges is the push work of a residual patch.
	PushedNodes  int `json:"pushed_nodes,omitempty"`
	TouchedEdges int `json:"touched_edges,omitempty"`
	// FellBack reports that the perturbation spread until its active rows
	// owned over half the graph's stored edges and the patch ran
	// whole-matrix rounds on its private cloned view instead of tracking
	// the frontier. The beliefs are already updated when the response
	// arrives — no later query pays for it — so the flag is purely
	// diagnostic: it names the cheaper schedule for this patch on this
	// graph, not a failure.
	FellBack bool `json:"fell_back,omitempty"`
}

// Health is the body of GET /healthz, the liveness probe: registry totals
// only, never an engine build. Per-graph numbers are at GET
// /v1/graphs/{name} and GET /v1/admin/registry.
type Health struct {
	Status        string  `json:"status"`
	Graphs        int     `json:"graphs"`
	GraphsBuilt   int     `json:"graphs_built"`
	ResidentBytes int64   `json:"resident_bytes"`
	GoVersion     string  `json:"go_version"`
	UptimeMS      float64 `json:"uptime_ms"`
}

// BuildResponse is the body of GET /v1/admin/build: what binary is serving.
type BuildResponse struct {
	// Path / Version identify the main module (Version is "(devel)" for
	// plain `go build` binaries).
	Path    string `json:"path,omitempty"`
	Version string `json:"version,omitempty"`
	// Build carries selected debug.ReadBuildInfo settings when stamped:
	// vcs.revision, vcs.time, vcs.modified, GOOS, GOARCH, -buildmode.
	Build      map[string]string `json:"build,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
}

// APIError is the uniform error body.
type APIError struct {
	Error string `json:"error"`
}

// TimelineResponse is the body of GET /v1/admin/timeline: the flight
// recorder's rolling ring of sampled series, oldest point first. Series
// without a "graph" key are process-wide.
type TimelineResponse struct {
	IntervalSeconds float64                    `json:"interval_seconds"`
	Series          []telemetry.TimelineSeries `json:"series"`
}

// SlowLogEntry is one captured slow request: when, where, how far past the
// threshold, and the engine's stage breakdown when the route threads one.
// TraceID names the request's full span tree in /v1/admin/traces?id=.
type SlowLogEntry struct {
	Time        string        `json:"time"`
	Graph       string        `json:"graph,omitempty"`
	Route       string        `json:"route"`
	TraceID     string        `json:"trace_id"`
	DurationUs  float64       `json:"duration_us"`
	ThresholdUs float64       `json:"threshold_us"`
	Stages      []StageTiming `json:"stages,omitempty"`
}

// SlowLogResponse is the body of GET /v1/admin/slowlog, newest entry first.
// ThresholdUs is the adaptive capture threshold currently in force (p99 of
// the tracked window times the configured factor), in fractional
// microseconds like every *_us field; 0 entries with a huge threshold means
// the log is still warming up.
type SlowLogResponse struct {
	ThresholdUs float64        `json:"threshold_us"`
	Entries     []SlowLogEntry `json:"entries"`
}

// TraceSummary is one retained trace in the GET /v1/admin/traces listing.
// TraceID is the 32-hex W3C trace id — the same id the /metrics exemplars
// carry and the ?id= parameter accepts. Reason says why the trace was
// captured: "head" (the local sampler), "parent" (an upstream traceparent
// arrived sampled), "slow" (the request beat the slow-log threshold) or
// "error" (5xx). Depth is the longest parent chain in the span tree (the
// request root span is depth 1).
type TraceSummary struct {
	TraceID    string  `json:"trace_id"`
	Graph      string  `json:"graph"`
	Kind       string  `json:"kind"`
	Time       string  `json:"time"`
	DurationUs float64 `json:"duration_us"`
	Status     int     `json:"status"`
	Reason     string  `json:"reason"`
	SpanCount  int     `json:"span_count"`
	Depth      int     `json:"depth"`
	// Remote is true when the trace context arrived on the request (the
	// trace originated upstream) rather than being minted here.
	Remote bool `json:"remote,omitempty"`
}

// TracesResponse is the body of GET /v1/admin/traces (no ?id): retained
// traces newest first, plus the sampler rate and ring capacity in force.
type TracesResponse struct {
	SampleRate float64        `json:"sample_rate"`
	Capacity   int            `json:"capacity"`
	Count      int            `json:"count"`
	Traces     []TraceSummary `json:"traces"`
}

// SpanWire is one span of a GET /v1/admin/traces?id= response. ParentID
// links the tree: every span's chain terminates at the request root span,
// whose own parent is the remote traceparent's span id (or all zeros when
// the trace originated here).
type SpanWire struct {
	Name       string  `json:"name"`
	SpanID     string  `json:"span_id"`
	ParentID   string  `json:"parent_span_id"`
	StartUs    float64 `json:"start_us"`
	DurationUs float64 `json:"duration_us"`
}

// CostWire is the per-request work attribution of one stored trace.
type CostWire struct {
	Pushes          int64   `json:"pushes"`
	EdgesTraversed  int64   `json:"edges_traversed"`
	RowsCloned      int64   `json:"rows_cloned"`
	FlushSeconds    float64 `json:"flush_seconds"`
	LockWaitSeconds float64 `json:"lock_wait_seconds"`
}

// TraceDetail is the body of GET /v1/admin/traces?id=: the summary plus
// the full span tree and the request's cost attribution.
type TraceDetail struct {
	TraceSummary
	RootSpanID     string     `json:"root_span_id"`
	RemoteParentID string     `json:"remote_parent_id,omitempty"`
	Cost           CostWire   `json:"cost"`
	Spans          []SpanWire `json:"spans"`
}

// TenantCost is one graph's row of the GET /v1/admin/tenants cost report:
// cumulative request-attributed work since the graph's series were created.
// WorkUnits is the scalar cost score (pushes + edges traversed + rows
// cloned) and CostShare that graph's fraction of the total across tenants.
type TenantCost struct {
	Graph           string  `json:"graph"`
	Requests        int64   `json:"requests"`
	Pushes          int64   `json:"pushes"`
	EdgesTraversed  int64   `json:"edges_traversed"`
	RowsCloned      int64   `json:"rows_cloned"`
	FlushSeconds    float64 `json:"flush_seconds"`
	LockWaitSeconds float64 `json:"lock_wait_seconds"`
	WorkUnits       int64   `json:"work_units"`
	CostShare       float64 `json:"cost_share"`
}

// TenantsResponse is the body of GET /v1/admin/tenants, most expensive
// tenant first.
type TenantsResponse struct {
	Count          int          `json:"count"`
	TotalWorkUnits int64        `json:"total_work_units"`
	Tenants        []TenantCost `json:"tenants"`
}

// HealthCheck is one numeric-health reading with its warn threshold
// applied: a check warns when Value reaches WarnAt. Status carries the
// verdict so clients need not re-implement the thresholds.
type HealthCheck struct {
	Name   string  `json:"name"`
	Status string  `json:"status"` // ok | warn
	Value  float64 `json:"value"`
	WarnAt float64 `json:"warn_at,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// GraphHealth is one graph's numeric-health rollup.
type GraphHealth struct {
	Graph  string        `json:"graph"`
	Status string        `json:"status"` // ok | warn: worst check
	Epoch  int64         `json:"epoch"`
	Checks []HealthCheck `json:"checks"`
}

// NumericHealthResponse is the body of GET /v1/admin/health. Cold lists
// graphs that are registered but not resident — health polling never
// builds an engine.
type NumericHealthResponse struct {
	Status string        `json:"status"` // ok | warn: worst graph
	Graphs []GraphHealth `json:"graphs"`
	Cold   []string      `json:"cold,omitempty"`
}
