package serve

import (
	"log/slog"
	"net/http"
	"time"

	"factorgraph/internal/telemetry"
)

// HTTP-layer metric handles. Every route is wrapped by (*Server).route,
// which owns the request counter, latency histogram and error counters for
// that route; the handles live in a routeMetrics bundle created once at
// registration (the hot path never touches the registry map).
var (
	httpInFlight = telemetry.Default().Gauge("fg_http_in_flight",
		"Requests currently being served.")
	mHTTPPanics = telemetry.Default().Counter("fg_http_panics_total",
		"Handler panics caught by the route middleware: a 500 when nothing was written yet, an aborted connection otherwise.")

	mNDJSONRecords = telemetry.Default().Counter("fg_http_ndjson_records_total",
		"NDJSON records written on streaming classify responses.")
	mNDJSONFlushes = telemetry.Default().Counter("fg_http_ndjson_flushes_total",
		"Explicit flushes of streaming classify responses.")
	mNDJSONSlowFlushes = telemetry.Default().Counter("fg_http_ndjson_slow_flushes_total",
		"Flushes slower than the backpressure threshold (the adaptive interval doubled).")
	hNDJSONFlush = telemetry.Default().Histogram("fg_http_ndjson_flush_seconds",
		"Streaming flush duration (write of the buffered batch + gzip flush + ResponseWriter flush): where a slow client blocks the stream.", telemetry.MicroBuckets)
)

// routeMetrics bundles the per-route handles; one bundle per route name,
// resolved at mux registration.
type routeMetrics struct {
	requests *telemetry.Counter
	err4xx   *telemetry.Counter
	err5xx   *telemetry.Counter
	latency  *telemetry.Histogram
}

func newRouteMetrics(route string) *routeMetrics {
	ls := telemetry.Labels{"route": route}
	return &routeMetrics{
		requests: telemetry.Default().Counter("fg_http_requests_total",
			"HTTP requests served, by route.", ls),
		err4xx: telemetry.Default().Counter("fg_http_errors_total",
			"HTTP error responses, by route and status class.",
			telemetry.Labels{"route": route, "class": "4xx"}),
		err5xx: telemetry.Default().Counter("fg_http_errors_total",
			"HTTP error responses, by route and status class.",
			telemetry.Labels{"route": route, "class": "5xx"}),
		latency: telemetry.Default().Histogram("fg_http_request_duration_seconds",
			"Request duration, by route.", nil, ls),
	}
}

// statusWriter records the response status for metrics and access logs. It
// forwards Flush — the streaming classify handler type-asserts http.Flusher
// on the writer it receives, so losing the interface here would silently
// disable incremental delivery. exemplar carries the captured trace id (hex)
// back from withEngine to the route middleware, which attaches it to the
// route latency histogram as an OpenMetrics exemplar.
type statusWriter struct {
	http.ResponseWriter
	status   int
	exemplar string
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route registers pattern on the mux wrapped in the telemetry middleware:
// request count, latency, error class and the in-flight gauge, plus a
// debug-level access log line when the server has a logger. The accounting
// is deferred, so a panicking handler still leaves the gauge and counters
// straight: the panic becomes a JSON 500 when nothing was written yet, and
// otherwise re-panics as http.ErrAbortHandler, which drops the half-sent
// reply's connection.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	rm := newRouteMetrics(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		httpInFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p != nil && p != http.ErrAbortHandler {
				mHTTPPanics.Inc()
				if s.log != nil {
					s.log.Error("http handler panic", slog.String("route", name), slog.Any("panic", p))
				}
				if sw.status == 0 {
					sw.Header().Del("Content-Encoding")
					writeError(sw, http.StatusInternalServerError, "internal error")
					p = nil
				}
			}
			httpInFlight.Add(-1)
			s.account(rm, name, sw, r, time.Since(start))
			if p != nil {
				panic(http.ErrAbortHandler)
			}
		}()
		h(sw, r)
	})
}

// account is the route middleware's tail: request count, latency
// (exemplar-linked when withEngine captured the trace), error class and the
// access log line.
func (s *Server) account(rm *routeMetrics, name string, sw *statusWriter, r *http.Request, dur time.Duration) {
	status := sw.status
	if status == 0 {
		status = http.StatusOK // handler wrote nothing: implicit 200
	}
	rm.requests.Inc()
	if sw.exemplar != "" {
		rm.latency.ObserveExemplar(dur.Seconds(), sw.exemplar)
	} else {
		rm.latency.Observe(dur.Seconds())
	}
	switch {
	case status >= 500:
		rm.err5xx.Inc()
	case status >= 400:
		rm.err4xx.Inc()
	}
	if s.log != nil && s.log.Enabled(r.Context(), slog.LevelDebug) {
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "http request",
			slog.String("route", name),
			slog.String("method", r.Method),
			slog.String("graph", r.PathValue("name")),
			slog.Int("status", status),
			slog.Duration("duration", dur),
		)
	}
}
