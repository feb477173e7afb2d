// Package serve is the HTTP/JSON layer over the multi-tenant graph
// registry: request validation, wire types and handlers for the
// classification service exposed by cmd/serve.
//
// Graph management:
//
//	POST   /v1/graphs              register a graph (synthetic spec, server
//	                               file paths, or inline upload)
//	GET    /v1/graphs              list graphs with per-graph stats
//	GET    /v1/graphs/{name}       one graph's state and stats
//	DELETE /v1/graphs/{name}       unregister (in-flight requests drain)
//	GET    /v1/admin/registry      registry totals + per-graph stats
//
// Per-graph serving (engines are built lazily on first use, evicted LRU
// under the registry's memory budget, and rebuilt transparently):
//
//	POST  /v1/graphs/{name}/estimate  run a sketch estimator (dcer, dce, mce)
//	POST  /v1/graphs/{name}/classify  classify nodes; NDJSON streaming and
//	                                  gzip (Accept-Encoding) for large results
//	GET   /v1/graphs/{name}/labels    current seed labels
//	PATCH /v1/graphs/{name}/labels    incremental seed updates
//	PATCH /v1/graphs/{name}/edges     streaming topology mutations (edge
//	                                  add/remove, node additions; JSON
//	                                  batch or NDJSON stream)
//
// Every engine-backed request names its graph in the path.
//
// Observability:
//
//	GET /healthz            liveness: registry totals, Go version, uptime
//	GET /metrics            Prometheus text exposition of the whole stack
//	GET /v1/admin/build     the serving binary: module, VCS, Go, GOMAXPROCS
//	/debug/pprof/*          with Options.Pprof (cmd/serve -pprof)
//	POST .../classify?debug=1   per-stage timing breakdown in the response
//
// Every route is wrapped in a telemetry middleware (request counts,
// latency histograms, error classes, in-flight gauge) and, when
// Options.Logger is set, a debug-level access log.
package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"factorgraph"
	"factorgraph/internal/registry"
	"factorgraph/internal/telemetry"
)

// maxBodyBytes bounds ordinary request bodies; a classify request listing
// every node of a 10M-node graph is ~80MB, far above any sane request.
const maxBodyBytes = 8 << 20

// maxUploadBytes bounds POST /v1/graphs bodies, which may carry a whole
// inline edge list.
const maxUploadBytes = 64 << 20

// maxAddNodes bounds the nodes one PATCH …/edges request may append (its
// add_nodes, or the sum of its NDJSON add_nodes counts): growth allocates
// n-sized state before any edge is looked at, so a 24-byte body must not be
// able to ask for gigabytes. Larger graphs grow over several requests.
const maxAddNodes = 1 << 20

// defaultFlushEvery is how many NDJSON records are written between explicit
// flushes when Options.FlushEvery is unset, so large streaming responses
// reach slow clients incrementally.
const defaultFlushEvery = 256

// Options tunes the HTTP layer.
type Options struct {
	// FlushEvery is the initial (and minimum) NDJSON record interval
	// between explicit flushes on streaming classify responses (default
	// 256; lower = lower latency to first byte for slow consumers, higher
	// = fewer syscalls). The interval is backpressure-aware: when a flush
	// stalls on a slow client the interval doubles (up to 16× this value)
	// so the handler amortizes the stalls, and it halves back once writes
	// are fast again.
	FlushEvery int
	// Logger, when set, emits debug-level access logs (route, method,
	// status, duration, graph) through the wrapping middleware. nil
	// disables access logging; metrics are collected either way.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server's own
	// mux. cmd/serve sets it for same-port profiling; a separate admin
	// listener (-metrics-addr) mounts its own handlers instead.
	Pprof bool

	// TimelineInterval / TimelineSamples size the flight recorder's
	// rolling ring behind GET /v1/admin/timeline: one point per interval,
	// samples points of history per series (defaults 10s × 90 — 15
	// minutes). Zero values take the defaults.
	TimelineInterval time.Duration
	TimelineSamples  int
	// SlowLogFactor scales the tracked p99 latency into the slow-query
	// capture threshold (default 3: capture requests 3× slower than the
	// recent p99). SlowLogFloor, when set, is a hard minimum threshold —
	// and doubles as the pre-warmup threshold so cold servers with a
	// floor still capture.
	SlowLogFactor float64
	SlowLogFloor  time.Duration

	// TraceSampleRate is the head-sampling fraction of requests whose
	// span trees are captured into the in-process trace store behind
	// GET /v1/admin/traces (0 = the 1% default, negative = off). The
	// decision is deterministic on the trace id, so an inbound W3C
	// traceparent sampled upstream is honored regardless of the local
	// rate, and errors (5xx) and slow-log threshold exceedances are
	// force-captured even at rate 0. TraceStoreCapacity bounds the trace
	// ring (default 256 entries; the oldest is evicted).
	TraceSampleRate    float64
	TraceStoreCapacity int
}

// Adaptive flush bounds: a flush slower than slowFlushLatency doubles the
// interval (the client, not the engine, is the bottleneck — flush less);
// one faster than fastFlushLatency halves it back toward the configured
// floor. maxFlushScale caps the growth so a stalled client still receives
// records in bounded batches.
const (
	maxFlushScale    = 16
	slowFlushLatency = 3 * time.Millisecond
	fastFlushLatency = 300 * time.Microsecond
)

// nextFlushInterval is the backpressure controller: pure so the boundary
// behavior is unit-testable.
func nextFlushInterval(cur, base int, flushDur time.Duration) int {
	switch {
	case flushDur > slowFlushLatency && cur < base*maxFlushScale:
		cur *= 2
		if cur > base*maxFlushScale {
			cur = base * maxFlushScale
		}
	case flushDur < fastFlushLatency && cur > base:
		cur /= 2
		if cur < base {
			cur = base
		}
	}
	return cur
}

// Server routes HTTP requests to engines resolved through a graph registry.
type Server struct {
	reg        *registry.Registry
	mux        *http.ServeMux
	start      time.Time
	flushEvery int
	log        *slog.Logger
	rec        *recorder
}

// NewMulti builds a multi-tenant Server over an existing registry.
func NewMulti(reg *registry.Registry, o Options) *Server {
	if o.FlushEvery <= 0 {
		o.FlushEvery = defaultFlushEvery
	}
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now(), flushEvery: o.FlushEvery, log: o.Logger}
	s.rec = newRecorder(reg, o)
	// Every per-graph series is dropped when the graph is deleted or fully
	// evicted; the health gauges are read when they are asked for (Metrics).
	reg.SetHooks(registry.Hooks{OnForget: s.rec.forget})
	s.rec.timeline.Start()

	s.route("GET /healthz", "healthz", s.handleHealth)
	s.route("GET /v1/admin/registry", "admin_registry", s.handleAdmin)
	s.route("GET /v1/admin/build", "admin_build", s.handleBuildInfo)
	s.route("GET /v1/admin/timeline", "admin_timeline", s.handleTimeline)
	s.route("GET /v1/admin/slowlog", "admin_slowlog", s.handleSlowLog)
	s.route("GET /v1/admin/health", "admin_health", s.handleNumericHealth)
	s.route("GET /v1/admin/traces", "admin_traces", s.handleTraces)
	s.route("GET /v1/admin/tenants", "admin_tenants", s.handleTenants)

	s.route("GET /metrics", "metrics", s.Metrics().ServeHTTP)

	s.route("POST /v1/graphs", "graph_create", s.handleGraphCreate)
	s.route("GET /v1/graphs", "graph_list", s.handleGraphList)
	s.route("GET /v1/graphs/{name}", "graph_get", s.handleGraphGet)
	s.route("DELETE /v1/graphs/{name}", "graph_delete", s.handleGraphDelete)

	s.route("POST /v1/graphs/{name}/estimate", "estimate", s.withEngine("estimate", s.handleEstimate))
	s.route("POST /v1/graphs/{name}/classify", "classify", s.withEngine("classify", s.handleClassify))
	s.route("GET /v1/graphs/{name}/labels", "labels_get", s.withEngine("labels_get", s.handleLabelsGet))
	s.route("PATCH /v1/graphs/{name}/labels", "labels_patch", s.withEngine("labels_patch", s.handleLabelsPatch))
	s.route("PATCH /v1/graphs/{name}/edges", "edges_patch", s.withEngine("edges_patch", s.handleEdgesPatch))

	if o.Pprof {
		// Unwrapped: profile downloads run for -seconds and would distort
		// the request latency series.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Registry exposes the backing registry (cmd/serve registers its
// flag-built graph through it before listening).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Metrics serves the Prometheus text exposition with every resident
// graph's health gauges read at the scrape; cmd/serve also mounts it on its
// -metrics-addr listener.
func (s *Server) Metrics() http.Handler {
	metrics := telemetry.Handler(telemetry.Default())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.rec.numericHealth(s.reg, nil)
		metrics.ServeHTTP(w, r)
	})
}

// Close stops the flight recorder's background sampler. The Server holds
// no listeners of its own; cmd/serve calls this during shutdown.
func (s *Server) Close() { s.rec.timeline.Stop() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// withEngine resolves the request's graph (the {name} path component)
// through the registry — building the engine if it is cold or was
// evicted — and pins it for the duration of the handler via the registry
// refcount, so eviction can never close an engine mid-request. It is also the tracing boundary and the flight recorder's
// capture point: the inbound W3C traceparent (when present) is extracted
// into the request trace that rides the context (handlers thread it into
// engine queries), the response carries a traceparent naming this request's
// root span, and on the way out the trace is captured into the trace store
// when sampled (or forced by an error or the slow-log threshold), the
// per-graph counters and cost rollup land, and the latency histograms gain
// an exemplar linking to the captured trace. kind names the request class
// for the query/patch/mutation counters, the slow-log entries and the
// synthesized root span.
func (s *Server) withEngine(kind string, fn func(http.ResponseWriter, *http.Request, *factorgraph.Engine)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		eng, release, err := s.reg.Acquire(name)
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		defer release()
		tr := s.rec.startTrace(r)
		if tr != nil {
			// Inject before the handler writes the header: the client learns
			// this request's root span id and the sampling verdict, so a
			// round-tripped traceparent proves context propagation.
			// Stored under its canonical key, so no per-request canonicalising.
			w.Header()["Traceparent"] = []string{
				telemetry.Traceparent(tr.TraceID(), tr.RootSpanID(), tr.Sampled())}
		}
		start := time.Now()
		fn(w, r.WithContext(telemetry.WithTrace(r.Context(), tr)), eng)
		d := time.Since(start)
		status := http.StatusOK
		sw, _ := w.(*statusWriter)
		if sw != nil && sw.status != 0 {
			status = sw.status
		}
		exemplar := s.rec.capture(name, kind, d, status, tr)
		if sw != nil {
			sw.exemplar = exemplar
		}
		s.rec.observe(name, kind, d, tr, exemplar)
	}
}

// writeRegistryError maps registry errors to status codes: unknown graph is
// the caller's 404, anything else (an engine build failure) is the
// server's 500.
func writeRegistryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, registry.ErrExists):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeJSONNegotiated is writeJSON with gzip content negotiation (see
// writeBody). The body is rendered before the header is written, so a value
// encoding/json refuses is a 500, not a 200 with an empty body.
func writeJSONNegotiated(w http.ResponseWriter, r *http.Request, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "rendering reply: %v", err)
		return
	}
	writeBody(w, status, acceptsGzip(r), body.Bytes())
}

// writeBody writes a rendered JSON reply, gzip-compressed when gzipOK (the
// client advertised Accept-Encoding: gzip). Write errors mean the client
// went away; there is no one left to report them to.
func writeBody(w http.ResponseWriter, status int, gzipOK bool, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if !gzipOK {
		w.WriteHeader(status)
		_, _ = w.Write(body)
		return
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.WriteHeader(status)
	gz := gzip.NewWriter(w)
	_, _ = gz.Write(body)
	_ = gz.Close()
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, APIError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON body into v with strict field checking. An
// empty body decodes as the zero value, so every POST/PATCH field is
// optional by default.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	return decodeJSON(w, http.MaxBytesReader(w, r.Body, limit), v)
}

// decodeJSON is decodeBody over an already bounded body.
func decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return true
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	rs := s.reg.Stats()
	writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		Graphs:        rs.Graphs,
		GraphsBuilt:   rs.Built,
		ResidentBytes: rs.ResidentBytes,
		GoVersion:     runtime.Version(),
		UptimeMS:      float64(time.Since(s.start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleAdmin(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, AdminResponse{
		Stats:  s.reg.Stats(),
		Graphs: s.reg.List(),
	})
}

func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	resp := BuildResponse{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Path = bi.Main.Path
		resp.Version = bi.Main.Version
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOARCH", "GOOS", "-buildmode":
				if resp.Build == nil {
					resp.Build = make(map[string]string)
				}
				resp.Build[st.Key] = st.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateGraphRequest
	if !decodeBody(w, r, &req, maxUploadBytes) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "graph name is required")
		return
	}
	info, err := s.reg.Register(req.Name, req.Spec())
	if err != nil {
		if errors.Is(err, registry.ErrExists) {
			writeRegistryError(w, err)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if req.Warm {
		// Build the engine now rather than on first query. A failed warm
		// build unregisters the graph so creation stays all-or-nothing.
		_, release, err := s.reg.Acquire(req.Name)
		if err != nil {
			_ = s.reg.Delete(req.Name)
			writeError(w, http.StatusUnprocessableEntity, "graph build failed: %v", err)
			return
		}
		release()
		info, _ = s.reg.Info(req.Name)
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	graphs := s.reg.List()
	writeJSON(w, http.StatusOK, GraphListResponse{Count: len(graphs), Graphs: graphs})
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Info(r.PathValue("name"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Delete(name); err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteGraphResponse{Deleted: name})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, eng *factorgraph.Engine) {
	var req EstimateRequest
	if !decodeBody(w, r, &req, maxBodyBytes) {
		return
	}
	est, err := eng.EstimateWith(req.Method, factorgraph.EstimateOptions{
		LMax: req.LMax, Lambda: req.Lambda, Restarts: req.Restarts, Seed: req.Seed,
	})
	if errors.Is(err, factorgraph.ErrUnknownEstimator) || errors.Is(err, factorgraph.ErrEstimateOptions) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "estimation failed: %v", err)
		return
	}
	if req.Apply {
		if err := eng.SetH(est.H, est.Method); err != nil {
			writeError(w, http.StatusInternalServerError, "apply failed: %v", err)
			return
		}
	}
	h := make([][]float64, est.H.Rows)
	for i := range h {
		h[i] = append([]float64(nil), est.H.Row(i)...)
	}
	writeJSONNegotiated(w, r, http.StatusOK, EstimateResponse{
		Method:    est.Method,
		H:         h,
		RuntimeMS: float64(est.Runtime) / float64(time.Millisecond),
		Applied:   req.Apply,
	})
}

// acceptsGzip reports whether the client advertised gzip support. Content
// codings are case-insensitive and x-gzip is gzip (RFC 9110 §8.4.1,
// §8.4.1.3); a qvalue of 0 ("gzip;q=0") means gzip is explicitly NOT
// acceptable (§12.4.2).
func acceptsGzip(r *http.Request) bool {
	ae := r.Header.Get("Accept-Encoding")
	if ae == "" {
		return false
	}
	for _, enc := range strings.Split(ae, ",") {
		parts := strings.Split(enc, ";")
		coding := strings.TrimSpace(parts[0])
		if !strings.EqualFold(coding, "gzip") && !strings.EqualFold(coding, "x-gzip") {
			continue
		}
		for _, param := range parts[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(param), "q="); ok {
				if q, err := strconv.ParseFloat(v, 64); err != nil || q == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request, eng *factorgraph.Engine) {
	var req ClassifyRequest
	if !decodeClassify(w, r, &req) {
		return
	}
	q, err := req.Query()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	gzipOK := acceptsGzip(r)
	if !req.Stream {
		// The middleware's stage trace threads through the query: the
		// engine records where the time went (overlay vs direct read vs emit),
		// the slow-query log captures it when the request lands beyond the
		// adaptive threshold, and debug=1 additionally returns the
		// breakdown in the response.
		tr := telemetry.TraceFrom(r.Context())
		q.Trace = tr
		debug := r.URL.RawQuery != "" && r.URL.Query().Get("debug") == "1"
		var results []factorgraph.NodeResult
		if q.Nodes != nil {
			results = make([]factorgraph.NodeResult, 0, len(q.Nodes))
		}
		meta, err := eng.ClassifyEachMeta(q, func(res factorgraph.NodeResult) error {
			results = append(results, res)
			return nil
		})
		if err != nil {
			writeError(w, classifyStatus(err), "%v", err)
			return
		}
		resp := ClassifyResponse{
			Count: len(results), Results: results,
			Residual: meta.Residual, PushedNodes: meta.PushedNodes,
			TouchedEdges: meta.TouchedEdges, ClonedRows: meta.ClonedRows,
			FellBack: meta.FellBack, Certified: meta.Certified,
		}
		if debug && tr != nil {
			for _, sp := range tr.Spans() {
				resp.Stages = append(resp.Stages, StageTiming{Stage: sp.Name, Us: micros(sp.Dur)})
			}
		}
		// Rendered whole before the header: a score encoding/json would
		// refuse (NaN, ±Inf) is a 500 with an error body.
		buf := getBuf()
		defer putBuf(buf)
		body, err := appendClassifyResponse(*buf, &resp)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "rendering classify reply: %v", err)
			return
		}
		*buf = append(body, '\n')
		writeBody(w, http.StatusOK, gzipOK, *buf)
		return
	}
	// NDJSON streaming: records are produced one at a time via ClassifyEach
	// (node validation happens before the first record) and appended to a
	// pooled buffer, so a classify-everything request over a huge graph never
	// materializes the full result set server-side. Every interval records
	// the batch is written and flushed so the response reaches slow clients
	// incrementally; with gzip the compressor is flushed on the same cadence,
	// trading a little ratio for latency. A batch past streamChunk bytes is
	// written early, unflushed, so the buffer stays poolable.
	headerSent := false
	var gz *gzip.Writer
	var out io.Writer = w
	sendHeader := func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if gzipOK {
			w.Header().Set("Content-Encoding", "gzip")
		}
		w.WriteHeader(http.StatusOK)
		if gzipOK {
			gz = gzip.NewWriter(w)
			out = gz
		}
		headerSent = true
	}
	buf := getBuf()
	defer putBuf(buf)
	writeBatch := func() error {
		if len(*buf) == 0 {
			return nil
		}
		_, err := out.Write(*buf)
		*buf = (*buf)[:0]
		return err // an error means the client went away
	}
	flusher, _ := w.(http.Flusher)
	interval := s.flushEvery
	sinceFlush := 0
	err = eng.ClassifyEach(q, func(res factorgraph.NodeResult) error {
		if !headerSent {
			sendHeader()
		}
		b, err := appendNodeResult(*buf, &res)
		if err != nil {
			return err
		}
		*buf = append(b, '\n')
		sinceFlush++
		if sinceFlush < interval {
			if len(*buf) >= streamChunk {
				return writeBatch()
			}
			return nil
		}
		mNDJSONRecords.Add(int64(sinceFlush))
		sinceFlush = 0
		// The timed region is where a slow client blocks: the batch's
		// write, then the flushes.
		start := time.Now()
		if err := writeBatch(); err != nil {
			return err
		}
		if gz != nil {
			_ = gz.Flush()
		}
		if flusher != nil {
			flusher.Flush()
		}
		flushDur := time.Since(start)
		mNDJSONFlushes.Inc()
		hNDJSONFlush.Observe(flushDur.Seconds())
		if flushDur > slowFlushLatency {
			mNDJSONSlowFlushes.Inc()
		}
		// Backpressure-aware chunk sizing: scale the interval by the
		// observed write latency instead of flushing a slow client on the
		// static cadence.
		interval = nextFlushInterval(interval, s.flushEvery, flushDur)
		return nil
	})
	if sinceFlush > 0 {
		mNDJSONRecords.Add(int64(sinceFlush)) // trailing partial batch
	}
	if err != nil && !headerSent {
		writeError(w, classifyStatus(err), "%v", err)
		return
	}
	if err == nil && !headerSent {
		sendHeader() // valid zero-record stream, e.g. "nodes":[]
	}
	// The trailing partial batch; after an error, the complete records
	// rendered before it.
	_ = writeBatch()
	if gz != nil {
		_ = gz.Close()
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// classifyStatus maps a Classify or MutateTopology error to a status class:
// engine faults are the server's, everything else is request validation.
func classifyStatus(err error) int {
	if errors.Is(err, factorgraph.ErrEngineInternal) || errors.Is(err, factorgraph.ErrEngineClosed) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// handleEdgesPatch applies a streaming topology mutation batch. Two body
// formats: a JSON EdgesPatch, or (Content-Type: application/x-ndjson) one
// EdgeOp per line, so mutation feeds can stream without buffering
// client-side.
func (s *Server) handleEdgesPatch(w http.ResponseWriter, r *http.Request, eng *factorgraph.Engine) {
	var (
		addNodes int
		muts     []factorgraph.EdgeMutation
		compact  bool
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		for {
			var op EdgeOp
			if err := dec.Decode(&op); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				writeError(w, http.StatusBadRequest, "invalid NDJSON edge op: %v", err)
				return
			}
			switch op.Op {
			case "set":
				muts = append(muts, factorgraph.EdgeMutation{U: op.U, V: op.V, W: op.W})
			case "remove":
				muts = append(muts, factorgraph.EdgeMutation{U: op.U, V: op.V, Remove: true})
			case "add_nodes":
				// Compared against the room left, so the sum cannot overflow.
				if op.Count < 0 || op.Count > maxAddNodes-addNodes {
					writeError(w, http.StatusBadRequest, "add_nodes count %d outside [0,%d] for the whole request", op.Count, maxAddNodes)
					return
				}
				addNodes += op.Count
			case "compact":
				compact = true
			default:
				writeError(w, http.StatusBadRequest, "unknown edge op %q (want set, remove, add_nodes or compact)", op.Op)
				return
			}
		}
	} else {
		var req EdgesPatch
		if !decodeBody(w, r, &req, maxUploadBytes) {
			return
		}
		if req.AddNodes < 0 || req.AddNodes > maxAddNodes {
			writeError(w, http.StatusBadRequest, "add_nodes %d outside [0,%d]", req.AddNodes, maxAddNodes)
			return
		}
		addNodes = req.AddNodes
		compact = req.Compact
		for _, e := range req.Set {
			if len(e) != 2 && len(e) != 3 {
				writeError(w, http.StatusBadRequest, "set entry %v: want [u, v] or [u, v, w]", e)
				return
			}
			m := factorgraph.EdgeMutation{U: int(e[0]), V: int(e[1])}
			if float64(m.U) != e[0] || float64(m.V) != e[1] {
				writeError(w, http.StatusBadRequest, "set entry %v: node ids must be integers", e)
				return
			}
			if len(e) == 3 {
				m.W = e[2]
			}
			muts = append(muts, m)
		}
		for _, e := range req.Remove {
			if len(e) != 2 {
				writeError(w, http.StatusBadRequest, "remove entry %v: want [u, v]", e)
				return
			}
			muts = append(muts, factorgraph.EdgeMutation{U: e[0], V: e[1], Remove: true})
		}
	}
	if addNodes == 0 && len(muts) == 0 && !compact {
		writeError(w, http.StatusBadRequest, "edge patch has no add_nodes, set, remove or compact")
		return
	}
	var meta factorgraph.MutateMeta
	var err error
	if addNodes > 0 || len(muts) > 0 {
		// The Ctx variant threads the middleware's trace into the engine:
		// sampled mutations record the engine.mutate span tree and their
		// push work lands in the per-tenant cost rollup.
		meta, err = eng.MutateTopologyCtx(r.Context(), addNodes, muts)
	} else {
		meta, err = eng.CompactTopology()
		compact = false // already done
	}
	if err != nil {
		writeError(w, classifyStatus(err), "%v", err)
		return
	}
	if compact && !meta.Compacted {
		cm, err := eng.CompactTopology()
		if err != nil {
			writeError(w, classifyStatus(err), "%v", err)
			return
		}
		meta.Compacted = cm.Compacted
		meta.Rescaled = meta.Rescaled || cm.Rescaled
		meta.Nodes, meta.Edges, meta.OverlayFraction = cm.Nodes, cm.Edges, cm.OverlayFraction
	}
	mode := "full"
	if meta.Residual {
		mode = "residual"
	}
	writeJSON(w, http.StatusOK, EdgesPatchResponse{
		Nodes: meta.Nodes, Edges: meta.Edges,
		AddedNodes: meta.AddedNodes, SetEdges: meta.SetEdges,
		RemovedEdges: meta.RemovedEdges, MissingRemoves: meta.MissingRemoves,
		Mode: mode, PushedNodes: meta.PushedNodes, TouchedEdges: meta.TouchedEdges,
		FellBack: meta.FellBack, Compacted: meta.Compacted, Rescaled: meta.Rescaled,
		Compacting:      meta.CompactPending,
		OverlayFraction: meta.OverlayFraction,
	})
}

func (s *Server) handleLabelsGet(w http.ResponseWriter, r *http.Request, eng *factorgraph.Engine) {
	seeds := eng.Seeds()
	out := make(map[string]int)
	for node, c := range seeds {
		if c != factorgraph.Unlabeled {
			out[strconv.Itoa(node)] = c
		}
	}
	writeJSON(w, http.StatusOK, LabelsResponse{Count: len(out), Labels: out})
}

func (s *Server) handleLabelsPatch(w http.ResponseWriter, r *http.Request, eng *factorgraph.Engine) {
	var req LabelsPatch
	if !decodeBody(w, r, &req, maxBodyBytes) {
		return
	}
	if len(req.Set) == 0 && len(req.Remove) == 0 && !req.Reestimate {
		writeError(w, http.StatusBadRequest, "patch has no set, remove or reestimate")
		return
	}
	set := make(map[int]int, len(req.Set))
	for key, c := range req.Set {
		node, err := strconv.Atoi(key)
		if err != nil {
			writeError(w, http.StatusBadRequest, "set key %q is not a node id", key)
			return
		}
		set[node] = c
	}
	var meta factorgraph.PatchMeta
	if len(set) > 0 || len(req.Remove) > 0 {
		var err error
		// The Ctx variant threads the middleware's trace into the engine:
		// sampled patches record the engine.patch span tree and their push
		// work lands in the per-tenant cost rollup.
		if meta, err = eng.UpdateLabelsMetaCtx(r.Context(), set, req.Remove); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if req.Reestimate {
		if _, err := eng.Reestimate(); err != nil {
			// The label updates above WERE applied (set/remove are
			// idempotent, so a retry is safe); only the re-estimation
			// failed. Say so, or a client would assume the patch was
			// rejected wholesale.
			writeError(w, http.StatusUnprocessableEntity,
				"labels applied, but re-estimation failed: %v", err)
			return
		}
	}
	mode := "full"
	if meta.Residual {
		mode = "residual"
	}
	writeJSON(w, http.StatusOK, LabelsPatchResponse{
		Labeled:      eng.LabeledCount(),
		Reestimated:  req.Reestimate,
		Mode:         mode,
		PushedNodes:  meta.PushedNodes,
		TouchedEdges: meta.TouchedEdges,
		FellBack:     meta.FellBack,
	})
}
