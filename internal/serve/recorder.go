package serve

import (
	"math"
	"net/http"
	"runtime"
	"time"

	"factorgraph"
	"factorgraph/internal/registry"
	"factorgraph/internal/telemetry"
)

// recorder is the flight-recorder layer: per-graph metric vectors feeding
// /metrics, the rolling timeline behind /v1/admin/timeline (sampled from
// those same vectors), and the trace ring behind /v1/admin/traces, whose
// captures beyond the adaptive slow-request threshold are the slow log
// behind /v1/admin/slowlog. One recorder per Server; the registry's
// OnForget hook drops a graph's series when it leaves, and the
// telemetry.Vec LRU bound caps cardinality even if a forget is missed.
type recorder struct {
	// Work counters and latency, labelled {graph}.
	requests  *telemetry.CounterVec
	queries   *telemetry.CounterVec
	patches   *telemetry.CounterVec
	mutations *telemetry.CounterVec
	latency   *telemetry.HistogramVec

	// Numeric-health gauges, labelled {graph}; set by numericHealth, which
	// the /metrics scrape, the timeline and /v1/admin/health run.
	resident *telemetry.GaugeVec
	dropped  *telemetry.GaugeVec
	margin   *telemetry.GaugeVec
	overlay  *telemetry.GaugeVec
	epochAge *telemetry.GaugeVec
	drift    *telemetry.GaugeVec

	// Per-tenant cost accounting, labelled {graph}: work attribution
	// accumulated on the request trace, rolled up on the way out and
	// served both as fg_graph_cost_* series and via /v1/admin/tenants.
	costPushes   *telemetry.CounterVec
	costEdges    *telemetry.CounterVec
	costRows     *telemetry.CounterVec
	costFlush    *telemetry.FloatCounterVec
	costLockWait *telemetry.FloatCounterVec

	timeline *telemetry.Timeline
	slowlog  *telemetry.SlowLog

	// Distributed-tracing tail: the head sampler decides which requests
	// record into the bounded trace ring behind /v1/admin/traces; errors
	// and slow-log threshold exceedances are force-captured regardless.
	sampler *telemetry.Sampler
	traces  *telemetry.TraceStore
}

// graphCardinality bounds the number of per-graph label values each vector
// family holds; beyond it the least-recently-used graph's series are
// evicted from /metrics (the counters themselves survive in the handles of
// any in-flight request, they just stop being exported).
const graphCardinality = 512

// DefaultTraceSampleRate is the head-sampling fraction when
// Options.TraceSampleRate is zero: 1% keeps the trace ring representative
// without letting tracing cost show up in the latency distribution.
const DefaultTraceSampleRate = 0.01

func newRecorder(graphs *registry.Registry, o Options) *recorder {
	reg := telemetry.Default()
	rate := o.TraceSampleRate
	switch {
	case rate == 0:
		rate = DefaultTraceSampleRate
	case rate < 0:
		rate = 0 // explicit off: only errors and slow requests are captured
	}
	c := &recorder{
		requests: telemetry.NewCounterVec(reg, "fg_graph_requests_total",
			"Engine-backed HTTP requests, by graph.", "graph", graphCardinality),
		queries: telemetry.NewCounterVec(reg, "fg_graph_queries_total",
			"Classify/estimate queries, by graph.", "graph", graphCardinality),
		patches: telemetry.NewCounterVec(reg, "fg_graph_label_patches_total",
			"Label patch requests, by graph.", "graph", graphCardinality),
		mutations: telemetry.NewCounterVec(reg, "fg_graph_edge_mutations_total",
			"Edge mutation requests, by graph.", "graph", graphCardinality),
		latency: telemetry.NewHistogramVec(reg, "fg_graph_request_duration_seconds",
			"Engine-backed request duration, by graph.", "graph", nil, graphCardinality),

		resident: telemetry.NewGaugeVec(reg, "fg_graph_resident_bytes",
			"Estimated resident bytes of the graph's engine.", "graph", graphCardinality),
		dropped: telemetry.NewGaugeVec(reg, "fg_graph_residual_dropped_mass",
			"Cumulative residual mass discarded by tier demotions and compactions.", "graph", graphCardinality),
		margin: telemetry.NewGaugeVec(reg, "fg_graph_contraction_margin",
			"Contraction-guard margin (guard minus worst-case effective s); compaction is forced at zero.", "graph", graphCardinality),
		overlay: telemetry.NewGaugeVec(reg, "fg_graph_overlay_fraction",
			"Delta-overlay patched fraction of the graph's stored entries.", "graph", graphCardinality),
		epochAge: telemetry.NewGaugeVec(reg, "fg_graph_epoch_age_seconds",
			"Age of the graph's current topology epoch.", "graph", graphCardinality),
		drift: telemetry.NewGaugeVec(reg, "fg_graph_sketch_drift_fraction",
			"Estimator-sketch drift as a fraction of the drop threshold.", "graph", graphCardinality),

		costPushes: telemetry.NewCounterVec(reg, "fg_graph_cost_pushes_total",
			"Residual pushes attributed to requests, by graph.", "graph", graphCardinality),
		costEdges: telemetry.NewCounterVec(reg, "fg_graph_cost_edges_traversed_total",
			"Edges traversed by request-attributed push work, by graph.", "graph", graphCardinality),
		costRows: telemetry.NewCounterVec(reg, "fg_graph_cost_rows_cloned_total",
			"Copy-on-write belief rows cloned for requests, by graph.", "graph", graphCardinality),
		costFlush: telemetry.NewFloatCounterVec(reg, "fg_graph_cost_flush_seconds_total",
			"Residual-flush time attributed to requests, by graph.", "graph", graphCardinality),
		costLockWait: telemetry.NewFloatCounterVec(reg, "fg_graph_cost_lock_wait_seconds_total",
			"Engine-lock wait time attributed to requests, by graph.", "graph", graphCardinality),

		slowlog: telemetry.NewSlowLog(o.SlowLogFactor, o.SlowLogFloor),
		sampler: telemetry.NewSampler(rate),
		traces:  telemetry.NewTraceStore(o.TraceStoreCapacity),
	}
	c.timeline = telemetry.NewTimeline(o.TimelineInterval, o.TimelineSamples,
		func(emit func(scope, name string, v float64)) { c.sampleSeries(graphs, emit) })
	return c
}

// sampleSeries is the timeline's source: the process-wide series under
// scope "", then one point per live graph of each per-graph series, after
// numericHealth has refreshed the health gauges.
func (c *recorder) sampleSeries(graphs *registry.Registry, emit func(scope, name string, v float64)) {
	c.numericHealth(graphs, nil)
	emit("", "http_in_flight", httpInFlight.Value())
	emit("", "goroutines", float64(runtime.NumGoroutine()))
	emit("", "registry_resident_bytes", float64(graphs.Stats().ResidentBytes))
	c.requests.Each(func(g string, n *telemetry.Counter) { emit(g, "requests_total", float64(n.Value())) })
	c.resident.Each(func(g string, v *telemetry.Gauge) { emit(g, "resident_bytes", v.Value()) })
	c.overlay.Each(func(g string, v *telemetry.Gauge) { emit(g, "overlay_fraction", v.Value()) })
	c.dropped.Each(func(g string, v *telemetry.Gauge) { emit(g, "residual_dropped_mass", v.Value()) })
}

// startTrace begins the request trace for one engine-backed request: the
// inbound W3C traceparent (when present and well-formed) supplies the trace
// id and remote parent span, otherwise a fresh id is minted; the head
// sampler (or an upstream sampled flag) decides whether the trace is
// destined for the trace store. Returns nil — the fully inert trace — when
// telemetry is disabled.
func (c *recorder) startTrace(r *http.Request) *telemetry.Trace {
	if !telemetry.Enabled() {
		return nil
	}
	var header string
	if v := r.Header["Traceparent"]; len(v) > 0 { // canonical key: Get would re-canonicalise it
		header = v[0]
	}
	tid, parent, parentSampled, ok := telemetry.ParseTraceparent(header)
	if !ok {
		tid, parent, parentSampled = telemetry.NewTraceID(), telemetry.SpanID{}, false
	}
	sampled := parentSampled || c.sampler.Sample(tid)
	return telemetry.NewRequestTrace(tid, parent, parentSampled, sampled)
}

// capture is the tail of the tracing pipeline: it decides whether the
// finished request's trace lands in the trace store (errors always, sampled
// traces always, slow-log threshold exceedances always), synthesizes the
// request root span, stamps the slow-log threshold in force, and returns
// the stored trace id (hex) for exemplar linkage — "" when nothing was
// captured. It runs before observe feeds d into the threshold's window, so
// a request is judged against a threshold its own duration has not moved.
func (c *recorder) capture(graph, kind string, d time.Duration, status int, tr *telemetry.Trace) string {
	if tr == nil {
		return ""
	}
	thr := c.slowlog.Threshold()
	var reason string
	switch {
	case status >= http.StatusInternalServerError:
		reason = "error"
	case tr.Sampled():
		reason = "head"
		if tr.RemoteSampled() {
			reason = "parent"
		}
	case d >= thr:
		reason = "slow"
	default:
		return ""
	}
	// The request itself becomes the root span, so the stored tree is
	// self-contained: every engine span's Parent chain terminates at it,
	// and it links onward to the remote parent when one came in.
	spans := tr.Spans()
	tree := make([]telemetry.Span, 0, len(spans)+1)
	tree = append(tree, telemetry.Span{
		Name: kind, ID: tr.RootSpanID(), Parent: tr.RemoteParent(), Dur: d,
	})
	tree = append(tree, spans...)
	c.traces.Put(telemetry.StoredTrace{
		ID:           tr.TraceID(),
		Root:         tr.RootSpanID(),
		RemoteParent: tr.RemoteParent(),
		Graph:        graph,
		Kind:         kind,
		Start:        tr.StartTime(),
		Duration:     d,
		Threshold:    thr,
		Status:       status,
		Reason:       reason,
		Spans:        tree,
		Cost:         tr.Cost(),
	})
	return tr.TraceID().String()
}

// observe is the per-request tail of withEngine: per-graph counters and
// latency (exemplar-linked when the request's trace was captured), the
// per-tenant cost rollup, and the slow-log threshold's p99 window. The
// fast path is a handful of LRU-map resolutions plus one atomic store.
func (c *recorder) observe(graph, kind string, d time.Duration, tr *telemetry.Trace, exemplar string) {
	c.requests.With(graph).Inc()
	if exemplar != "" {
		c.latency.With(graph).ObserveExemplar(d.Seconds(), exemplar)
	} else {
		c.latency.With(graph).Observe(d.Seconds())
	}
	switch kind {
	case "classify", "estimate":
		c.queries.With(graph).Inc()
	case "labels_patch":
		c.patches.With(graph).Inc()
	case "edges_patch":
		c.mutations.With(graph).Inc()
	}
	if cost := tr.Cost(); cost != (telemetry.Cost{}) {
		if cost.Pushes > 0 {
			c.costPushes.With(graph).Add(cost.Pushes)
		}
		if cost.EdgesTraversed > 0 {
			c.costEdges.With(graph).Add(cost.EdgesTraversed)
		}
		if cost.RowsCloned > 0 {
			c.costRows.With(graph).Add(cost.RowsCloned)
		}
		c.costFlush.With(graph).Add(cost.FlushSeconds)
		c.costLockWait.With(graph).Add(cost.LockWaitSeconds)
	}
	c.slowlog.Observe(d)
}

// numericHealth is the one reader of per-graph numeric health. It pins
// each resident engine without building it or moving it in the LRU order,
// sets the graph's health gauges from one NumericHealth snapshot while the
// pin holds, and hands the snapshot and the compactor's last panic
// (TopoStats.CompactPanic) to fn (cold graphs with built false). fn may be
// nil.
func (c *recorder) numericHealth(graphs *registry.Registry, fn func(graph string, h factorgraph.NumericHealth, compactPanic string, built bool)) {
	for _, info := range graphs.List() {
		eng, release, built := graphs.AcquireIfBuilt(info.Name)
		var h factorgraph.NumericHealth
		var compactPanic string
		if built {
			h = eng.NumericHealth()
			if fn != nil { // only the rollup reads it; a scrape does no extra work
				compactPanic = eng.TopoStats().CompactPanic
			}
			c.resident.With(info.Name).Set(float64(eng.MemoryFootprint()))
			c.dropped.With(info.Name).Set(h.ResidualDroppedMass)
			c.epochAge.With(info.Name).Set(h.EpochAgeSeconds)
			c.margin.With(info.Name).Set(h.ContractionMargin)
			c.overlay.With(info.Name).Set(h.OverlayFraction)
			drift := 0.0
			if h.SketchDriftLimit > 0 {
				drift = h.SketchDrift / h.SketchDriftLimit
			}
			c.drift.With(info.Name).Set(drift)
			release()
		}
		if fn != nil {
			fn(info.Name, h, compactPanic, built)
		}
	}
}

// forget is the registry's OnForget hook: the graph was deleted or fully
// evicted, so every per-graph series leaves /metrics and its timeline
// history is dropped. Runs under the registry lock — everything here is
// registry-free (telemetry and timeline have their own locks, and the
// timeline reads the registry outside its own).
func (c *recorder) forget(graph string) {
	c.timeline.Untrack(graph)
	c.requests.Delete(graph)
	c.queries.Delete(graph)
	c.patches.Delete(graph)
	c.mutations.Delete(graph)
	c.latency.Delete(graph)
	c.resident.Delete(graph)
	c.dropped.Delete(graph)
	c.margin.Delete(graph)
	c.overlay.Delete(graph)
	c.epochAge.Delete(graph)
	c.drift.Delete(graph)
	c.costPushes.Delete(graph)
	c.costEdges.Delete(graph)
	c.costRows.Delete(graph)
	c.costFlush.Delete(graph)
	c.costLockWait.Delete(graph)
}

// healthRhoBracketWarn: the rho_w_bracket check warns when the ρ(W)
// bracket's relative width (ρ̄ − ρ)/ρ passes this — ε rests on a ρ that is
// no longer certified to three digits.
const healthRhoBracketWarn = 1e-3

const (
	healthOK   = "ok"
	healthWarn = "warn"
)

// numericChecks is one engine's health rollup. Each check names the fault
// it detects. The capacity signals — dropped mass, contraction margin,
// overlay fraction, epoch age, sketch drift — are fg_graph_* gauges, not
// checks: the engine acts on each itself (compaction at margin 0 or at the
// overlay trigger, a sketch drop at its drift limit, exact residuals at
// every whole-matrix round), so nearing one forecasts a latency event, not
// a wrong answer.
func numericChecks(h factorgraph.NumericHealth, compactPanic string) []HealthCheck {
	return []HealthCheck{rhoBracketCheck(h), compactorCheck(compactPanic)}
}

// rhoBracketCheck reports the relative width (ρ̄ − ρ)/ρ of the pinned
// ρ(W) bracket; a bound that is not finite reads as the largest float and
// warns.
func rhoBracketCheck(h factorgraph.NumericHealth) HealthCheck {
	var width float64
	switch {
	case math.IsNaN(h.RhoWUpper) || math.IsInf(h.RhoWUpper, 0):
		width = math.MaxFloat64
	case h.RhoW > 0:
		width = (h.RhoWUpper - h.RhoW) / h.RhoW
	}
	return HealthCheck{
		Name:   "rho_w_bracket",
		Value:  width,
		WarnAt: healthRhoBracketWarn,
		Status: statusAbove(width, healthRhoBracketWarn),
		Detail: "relative width of the certified ρ(W) bracket the pinned ε rests on",
	}
}

// compactorCheck reads 1 while the last background compaction build
// panicked (TopoStats.CompactPanic) and 0 otherwise. The overlay stays
// live after such a panic and the next trip of the trigger builds again,
// so the warning clears at the first build that lands.
func compactorCheck(compactPanic string) HealthCheck {
	c := HealthCheck{
		Name:   "compactor",
		WarnAt: 1,
		Detail: "1 while the last background compaction build panicked",
	}
	if compactPanic != "" {
		c.Value = 1
		c.Detail += ": " + compactPanic
	}
	c.Status = statusAbove(c.Value, c.WarnAt)
	return c
}

func statusAbove(v, warnAt float64) string {
	if v >= warnAt {
		return healthWarn
	}
	return healthOK
}

// handleTimeline serves GET /v1/admin/timeline[?graph=]: the rolling ring
// of sampled series, oldest point first — trend data with no external
// Prometheus. Without ?graph it returns every scope (process-wide series
// carry no "graph" key).
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	graph := r.URL.Query().Get("graph")
	series := s.rec.timeline.Snapshot(graph, graph == "")
	writeJSON(w, http.StatusOK, TimelineResponse{
		IntervalSeconds: s.rec.timeline.Interval().Seconds(),
		Series:          series,
	})
}

// handleSlowLog serves GET /v1/admin/slowlog: the retained traces that
// beat the slow-log threshold stamped on them at capture (newest first),
// plus the adaptive threshold currently in force. Each entry's trace_id
// resolves through /v1/admin/traces?id= for as long as the trace ring
// keeps it.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	resp := SlowLogResponse{
		ThresholdUs: micros(s.rec.slowlog.Threshold()),
		Entries:     []SlowLogEntry{},
	}
	for _, st := range s.rec.traces.Snapshot() {
		if st.Duration < st.Threshold {
			continue
		}
		e := SlowLogEntry{
			Time:        st.Start.Add(st.Duration).UTC().Format(time.RFC3339Nano),
			Graph:       st.Graph,
			Route:       st.Kind,
			TraceID:     st.ID.String(),
			DurationUs:  micros(st.Duration),
			ThresholdUs: micros(st.Threshold),
		}
		for _, sp := range st.Spans[1:] { // Spans[0] is the synthesized request root
			e.Stages = append(e.Stages, StageTiming{Stage: sp.Name, Us: micros(sp.Dur)})
		}
		resp.Entries = append(resp.Entries, e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleNumericHealth serves GET /v1/admin/health: per-graph
// rho_w_bracket and compactor checks, rolled up to one top-level status.
// Cold graphs are listed but never built — health polling must not change
// residency.
func (s *Server) handleNumericHealth(w http.ResponseWriter, r *http.Request) {
	resp := NumericHealthResponse{Status: healthOK}
	s.rec.numericHealth(s.reg, func(graph string, h factorgraph.NumericHealth, compactPanic string, built bool) {
		if !built {
			resp.Cold = append(resp.Cold, graph)
			return
		}
		gh := GraphHealth{
			Graph:  graph,
			Status: healthOK,
			Epoch:  h.Epoch,
			Checks: numericChecks(h, compactPanic),
		}
		for _, c := range gh.Checks {
			if c.Status == healthWarn {
				gh.Status = healthWarn
				resp.Status = healthWarn
			}
		}
		resp.Graphs = append(resp.Graphs, gh)
	})
	writeJSON(w, http.StatusOK, resp)
}
