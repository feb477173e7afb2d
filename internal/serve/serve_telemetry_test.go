package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"factorgraph/internal/telemetry"
)

// scrape fetches /metrics through the server and returns the per-name
// totals (label dimensions summed).
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content-type %q", ct)
	}
	totals, err := telemetry.ParseTextTotals(rec.Body)
	if err != nil {
		t.Fatalf("unparseable exposition: %v", err)
	}
	return totals
}

// TestMetricsAllLayers drives every instrumented subsystem — HTTP routing,
// the engine query/patch/mutation paths, residual flushes, exec rounds, the
// delta overlay and the registry — and asserts each layer's series surface
// on /metrics with non-zero values. The registry is process-global, so the
// assertions are monotone (non-zero), never exact.
func TestMetricsAllLayers(t *testing.T) {
	srv, _ := newTestServer(t, 300, 1500)
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incrementalBody("tele", 400, 2000)); rec.Code != 201 {
		t.Fatalf("register: status %d", rec.Code)
	}

	// Classify (query path + a full propagation on the cold engine).
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs/tele/classify", `{"nodes":[1,2,3],"top_k":2}`); rec.Code != 200 {
		t.Fatalf("classify: status %d", rec.Code)
	}
	// Label patch (residual flush path).
	if rec, _ := doJSON(t, srv, "PATCH", "/v1/graphs/tele/labels", `{"set":{"7":1,"8":2}}`); rec.Code != 200 {
		t.Fatalf("labels patch: status %d", rec.Code)
	}
	// Edge mutations ending in a forced compaction (delta epoch churn).
	if rec, _ := doJSON(t, srv, "PATCH", "/v1/graphs/tele/edges",
		`{"set":[[1,2],[3,4,0.5]],"remove":[[1,2]],"compact":true}`); rec.Code != 200 {
		t.Fatalf("edges patch: status %d", rec.Code)
	}

	totals := scrape(t, srv)
	for _, key := range []string{
		"fg_http_requests_total",  // serve
		"fg_engine_queries_total", // engine query path
		"fg_engine_label_patches_total",
		"fg_engine_edge_mutations_total",
		"fg_engine_compactions_total",
		"fg_residual_flushes_total",       // residual
		"fg_delta_epochs_published_total", // delta overlay
		"fg_registry_builds_total",        // registry
	} {
		if totals[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, totals[key])
		}
	}
	// The exec layer counts rounds by schedule plus dense sweeps; which one
	// a given flush uses depends on patch width, so gate on their sum.
	if totals["fg_exec_rounds_total"]+totals["fg_exec_dense_rounds_total"] <= 0 {
		t.Errorf("no exec rounds recorded (tracked=%v dense=%v)",
			totals["fg_exec_rounds_total"], totals["fg_exec_dense_rounds_total"])
	}
	// Latency histograms export _count series; ParseTextTotals folds them
	// under their own names.
	if totals["fg_http_request_duration_seconds_count"] <= 0 {
		t.Errorf("request duration histogram has no observations")
	}
}

// TestMetricsExpositionFormat pins the HELP/TYPE framing on the wire.
func TestMetricsExpositionFormat(t *testing.T) {
	srv, _ := newTestServer(t, 100, 500)
	if rec, _ := doJSON(t, srv, "POST", testPath("classify"), `{"nodes":[0]}`); rec.Code != 200 {
		t.Fatalf("classify: status %d", rec.Code)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP fg_http_requests_total",
		"# TYPE fg_http_requests_total counter",
		"# TYPE fg_http_request_duration_seconds histogram",
		`fg_http_requests_total{route="classify"}`,
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestAdminBuild(t *testing.T) {
	srv, _ := newTestServer(t, 100, 500)
	rec, _ := doJSON(t, srv, "GET", "/v1/admin/build", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var b BuildResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.GoVersion == "" || b.GOMAXPROCS < 1 || b.NumCPU < 1 {
		t.Errorf("bad build info: %+v", b)
	}
}

// TestClassifyDebugTrace: ?debug=1 returns a per-stage timing breakdown on
// non-streaming classify; without it no stages appear.
func TestClassifyDebugTrace(t *testing.T) {
	srv, _ := newTestServer(t, 300, 1500)
	rec, _ := doJSON(t, srv, "POST", testPath("classify")+"?debug=1", `{"nodes":[1,2,3],"top_k":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Stages) == 0 {
		t.Fatal("debug=1 returned no stages")
	}
	seen := map[string]bool{}
	for _, st := range resp.Stages {
		if st.Us < 0 {
			t.Errorf("stage %s: negative duration %v", st.Stage, st.Us)
		}
		seen[st.Stage] = true
	}
	// A cold engine pays its one solve under the read that asked for it.
	for _, stage := range []string{"engine.classify", "residual.init", "residual_direct", "emit"} {
		if !seen[stage] {
			t.Errorf("stages %v, want %s present", seen, stage)
		}
	}
	if seen["resolve"] {
		t.Errorf("stages %v: there is no resolve stage", seen)
	}

	rec, _ = doJSON(t, srv, "POST", testPath("classify"), `{"nodes":[1]}`)
	resp = ClassifyResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Stages) != 0 {
		t.Errorf("stages present without debug=1: %v", resp.Stages)
	}
}

// TestConcurrentScrapeClassifyMutate exercises scrape + classify + label
// and edge mutations concurrently; run under -race this pins the
// lock-freedom claims of the metric handles end to end.
func TestConcurrentScrapeClassifyMutate(t *testing.T) {
	srv, _ := newTestServer(t, 300, 1500)
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incrementalBody("conc", 400, 2000)); rec.Code != 201 {
		t.Fatalf("register: status %d", rec.Code)
	}
	do := func(method, path, body string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	const iters = 30
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if code := do("POST", "/v1/graphs/conc/classify", `{"nodes":[1,2,3]}`); code != 200 {
				t.Errorf("classify: status %d", code)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			body := fmt.Sprintf(`{"set":{"%d":%d}}`, 10+i, i%3)
			if code := do("PATCH", "/v1/graphs/conc/labels", body); code != 200 {
				t.Errorf("labels: status %d", code)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			body := fmt.Sprintf(`{"set":[[%d,%d]]}`, 20+i, 120+i)
			if code := do("PATCH", "/v1/graphs/conc/edges", body); code != 200 {
				t.Errorf("edges: status %d", code)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if code := do("GET", "/metrics", ""); code != 200 {
				t.Errorf("metrics: status %d", code)
				return
			}
		}
	}()
	wg.Wait()
}

// TestRoutePanic checks the route middleware's recovery: a handler that
// panics before writing answers a JSON 500, one that panics mid-reply
// aborts the connection (re-panics http.ErrAbortHandler); either way the
// in-flight gauge returns to where it was and fg_http_panics_total counts
// the panic.
func TestRoutePanic(t *testing.T) {
	srv := newMultiServer(0, Options{})
	srv.route("GET /test/panic", "test_panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	srv.route("GET /test/panic-late", "test_panic_late", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("partial"))
		panic("boom")
	})
	inFlight, panics := httpInFlight.Value(), mHTTPPanics.Value()

	rec, body := doJSON(t, srv, "GET", "/test/panic", "")
	if rec.Code != http.StatusInternalServerError || body["error"] == nil {
		t.Fatalf("panicking handler: status %d, body %s; want a JSON 500", rec.Code, rec.Body.String())
	}
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("panic after a write re-panicked with %v, want http.ErrAbortHandler", p)
			}
		}()
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/test/panic-late", nil))
	}()
	if got := httpInFlight.Value(); got != inFlight {
		t.Errorf("fg_http_in_flight = %v after the panics, want %v", got, inFlight)
	}
	if got := mHTTPPanics.Value() - panics; got != 2 {
		t.Errorf("fg_http_panics_total rose by %d, want 2", got)
	}
	if got := scrape(t, srv)["fg_http_errors_total"]; got < 1 {
		t.Errorf("fg_http_errors_total = %v, want the 500 counted", got)
	}
}
