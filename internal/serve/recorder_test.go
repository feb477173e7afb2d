package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"factorgraph"
)

// rawScrape fetches /metrics and returns the raw exposition text, for
// per-label (not summed) assertions.
func rawScrape(t *testing.T, srv *Server) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

func classifyGraph(t *testing.T, srv *Server, name string) {
	t.Helper()
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs/"+name+"/classify", `{"nodes":[0,1]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("classify %s: status %d: %s", name, rec.Code, rec.Body.String())
	}
}

// TestPerGraphSeriesLifecycle is the flight-recorder cardinality
// acceptance test: per-graph series appear on the first request, are
// exported at every scrape while resident, and leave /metrics completely
// on DELETE. The telemetry
// registry is process-global, so assertions are scoped to this test's
// graph names.
func TestPerGraphSeriesLifecycle(t *testing.T) {
	srv := newMultiServer(0, Options{})
	for _, name := range []string{"recldaa", "recldab"} {
		rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody(name, 200, 1000))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, rec.Code)
		}
		classifyGraph(t, srv, name)
	}

	text := rawScrape(t, srv)
	for _, name := range []string{"recldaa", "recldab"} {
		for _, fam := range []string{
			"fg_graph_requests_total", "fg_graph_queries_total",
			"fg_graph_resident_bytes", "fg_graph_epoch_age_seconds",
		} {
			if !strings.Contains(text, fmt.Sprintf("%s{graph=%q}", fam, name)) {
				t.Errorf("%s missing series for graph %q", fam, name)
			}
		}
		if !strings.Contains(text, fmt.Sprintf("fg_graph_request_duration_seconds_count{graph=%q}", name)) {
			t.Errorf("latency histogram missing for graph %q", name)
		}
	}

	// DELETE drops every series of that graph and leaves the other's.
	rec, _ := doJSON(t, srv, "DELETE", "/v1/graphs/recldaa", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rec.Code)
	}
	text = rawScrape(t, srv)
	if strings.Contains(text, `graph="recldaa"`) {
		t.Errorf("deleted graph's series still exported:\n%s", grepLines(text, "recldaa"))
	}
	if !strings.Contains(text, `fg_graph_requests_total{graph="recldab"}`) {
		t.Errorf("surviving graph's series disappeared")
	}
}

// TestHealthGaugesReadAtScrape: the health gauges are read when /metrics is
// scraped, not when a request releases its engine. A background epoch swap
// that no request follows must still show in the next scrape.
func TestHealthGaugesReadAtScrape(t *testing.T) {
	srv := newMultiServer(0, Options{})
	body := `{"name":"recswap","async_compact":true,"compact_fraction":0.02,"warm":true,"synthetic":{"n":2000,"m":10000,"f":0.1,"seed":7}}`
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", body); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
	}
	eng, release, err := srv.Registry().Acquire("recswap")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	var tripped EdgesPatchResponse
	for i := 0; !tripped.Compacting; i++ {
		if i == 2000 {
			t.Fatal("no patch crossed the compaction trigger")
		}
		rec, resp := patchEdges(t, srv, "recswap", fmt.Sprintf(`{"set":[[%d,%d]]}`, i, (i*7+11)%2000))
		if rec.Code != http.StatusOK {
			t.Fatalf("patch %d: %d: %s", i, rec.Code, rec.Body.String())
		}
		tripped = resp
	}
	eng.WaitCompaction()
	want := eng.NumericHealth().OverlayFraction
	if want >= tripped.OverlayFraction {
		t.Fatalf("overlay %v after the swap, %v before it: no epoch swap landed", want, tripped.OverlayFraction)
	}
	prefix := `fg_graph_overlay_fraction{graph="recswap"} `
	for _, ln := range strings.Split(rawScrape(t, srv), "\n") {
		if v, ok := strings.CutPrefix(ln, prefix); ok {
			if got, err := strconv.ParseFloat(v, 64); err != nil || got != want {
				t.Errorf("%s%s, want %v (NumericHealth after the swap)", prefix, v, want)
			}
			return
		}
	}
	t.Errorf("no %s series", prefix)
}

// TestPerGraphSeriesEviction: a tier-2 (full) eviction unregisters the
// graph's series exactly like a DELETE; the next request re-registers
// them.
func TestPerGraphSeriesEviction(t *testing.T) {
	// Budget below a single shed footprint: every release fully evicts.
	budget := factorgraph.EstimateEngineBytes(300, 1500, 3, false) / 6
	srv := newMultiServer(budget, Options{})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("recevict", 300, 1500))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	classifyGraph(t, srv, "recevict")

	if text := rawScrape(t, srv); strings.Contains(text, `graph="recevict"`) {
		t.Errorf("evicted graph's series still exported:\n%s", grepLines(text, "recevict"))
	}

	// While the transparently-rebuilt engine is pinned resident, the
	// series are re-registered and exported again...
	_, release, err := srv.Registry().Acquire("recevict")
	if err != nil {
		t.Fatal(err)
	}
	classifyGraph(t, srv, "recevict")
	if text := rawScrape(t, srv); !strings.Contains(text, `fg_graph_requests_total{graph="recevict"}`) {
		t.Errorf("series not re-registered after transparent rebuild")
	}
	// ...and the pin's release re-evicts under the tiny budget, dropping
	// them once more.
	release()
	if text := rawScrape(t, srv); strings.Contains(text, `graph="recevict"`) {
		t.Errorf("re-evicted graph's series still exported:\n%s", grepLines(text, "recevict"))
	}
}

func grepLines(text, needle string) string {
	var hits []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, needle) {
			hits = append(hits, ln)
		}
	}
	return strings.Join(hits, "\n")
}

// TestTimelineEndpoint: probes install on a graph's first request, the
// sampler snapshots them into the ring, and /v1/admin/timeline serves the
// history — filtered per graph with ?graph=.
func TestTimelineEndpoint(t *testing.T) {
	// A huge interval so only explicit Sample() calls add points — the
	// test owns the clock.
	srv := newMultiServer(0, Options{TimelineInterval: time.Hour, TimelineSamples: 8})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("rectl", 200, 1000))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	classifyGraph(t, srv, "rectl")
	srv.rec.timeline.Sample()
	classifyGraph(t, srv, "rectl")
	srv.rec.timeline.Sample()

	var resp TimelineResponse
	hrec, _ := doJSON(t, srv, "GET", "/v1/admin/timeline", "")
	if hrec.Code != http.StatusOK {
		t.Fatalf("timeline: status %d", hrec.Code)
	}
	if err := json.Unmarshal(hrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.IntervalSeconds != 3600 {
		t.Errorf("interval_seconds = %v, want 3600", resp.IntervalSeconds)
	}
	find := func(scope, name string) *TimelineSeriesCheck {
		for _, s := range resp.Series {
			if s.Scope == scope && s.Name == name {
				return &TimelineSeriesCheck{s.Points[0].Value, s.Points[len(s.Points)-1].Value, len(s.Points)}
			}
		}
		return nil
	}
	got := find("rectl", "requests_total")
	if got == nil {
		t.Fatalf("no requests_total series for graph rectl in %d series", len(resp.Series))
	}
	if got.n != 2 || got.first != 1 || got.last != 2 {
		t.Errorf("requests_total points = %+v, want 2 points 1→2", got)
	}
	if find("", "goroutines") == nil {
		t.Errorf("process-wide goroutines series missing")
	}

	// ?graph= filters to one scope.
	hrec, _ = doJSON(t, srv, "GET", "/v1/admin/timeline?graph=rectl", "")
	resp = TimelineResponse{}
	if err := json.Unmarshal(hrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, s := range resp.Series {
		if s.Scope != "rectl" {
			t.Errorf("filtered snapshot leaked scope %q", s.Scope)
		}
	}
	if len(resp.Series) == 0 {
		t.Errorf("filtered snapshot empty")
	}

	// DELETE drops the graph's timeline history.
	if drec, _ := doJSON(t, srv, "DELETE", "/v1/graphs/rectl", ""); drec.Code != http.StatusOK {
		t.Fatalf("delete: status %d", drec.Code)
	}
	hrec, _ = doJSON(t, srv, "GET", "/v1/admin/timeline?graph=rectl", "")
	resp = TimelineResponse{}
	if err := json.Unmarshal(hrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Series) != 0 {
		t.Errorf("deleted graph still has %d timeline series", len(resp.Series))
	}
}

type TimelineSeriesCheck struct {
	first, last float64
	n           int
}

// TestSlowLogEndToEnd forces the slow-query path over HTTP: with a 1ns
// floor every request lands beyond the threshold, and the captured entry
// carries the engine's full stage trace.
func TestSlowLogEndToEnd(t *testing.T) {
	srv := newMultiServer(0, Options{SlowLogFloor: time.Nanosecond})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("recslow", 200, 1000))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	classifyGraph(t, srv, "recslow")

	hrec, _ := doJSON(t, srv, "GET", "/v1/admin/slowlog", "")
	if hrec.Code != http.StatusOK {
		t.Fatalf("slowlog: status %d", hrec.Code)
	}
	var resp SlowLogResponse
	if err := json.Unmarshal(hrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) == 0 {
		t.Fatalf("no slow-log entries captured")
	}
	e := resp.Entries[0]
	if e.Graph != "recslow" || e.Route != "classify" {
		t.Errorf("entry = %s/%s, want recslow/classify", e.Graph, e.Route)
	}
	if e.DurationUs <= 0 {
		t.Errorf("duration_us = %g, want > 0", e.DurationUs)
	}
	if len(e.Stages) == 0 {
		t.Errorf("captured entry has no stage trace")
	}
	if _, err := time.Parse(time.RFC3339Nano, e.Time); err != nil {
		t.Errorf("entry time %q: %v", e.Time, err)
	}
}

// TestSlowLogFractionalMicros checks the slow log reports fractional
// microseconds: under a 1ns floor the threshold in force, and each entry's
// stamped threshold, read 0.001, not a truncated 0.
func TestSlowLogFractionalMicros(t *testing.T) {
	srv := newMultiServer(0, Options{SlowLogFloor: time.Nanosecond})
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("recfrac", 200, 1000)); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	classifyGraph(t, srv, "recfrac")
	var resp SlowLogResponse
	hrec, _ := doJSON(t, srv, "GET", "/v1/admin/slowlog", "")
	if err := json.Unmarshal(hrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ThresholdUs <= 0 {
		t.Errorf("threshold_us = %g under a 1ns floor, want > 0", resp.ThresholdUs)
	}
	if len(resp.Entries) == 0 || resp.Entries[0].ThresholdUs != 0.001 {
		t.Errorf("entries %+v, want one stamped with threshold_us 0.001", resp.Entries)
	}
}

// TestSlowLogIsTraceRingView pins the slow log as a view of the trace
// ring: with head sampling off and a 1ns floor every request is captured
// as "slow", the slow log lists exactly those captures, and each entry's
// trace_id resolves to its full span tree.
func TestSlowLogIsTraceRingView(t *testing.T) {
	srv := newMultiServer(0, Options{SlowLogFloor: time.Nanosecond, TraceSampleRate: -1})
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("recview", 200, 1000)); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	for i := 0; i < 3; i++ {
		classifyGraph(t, srv, "recview")
	}
	if rec, _ := doJSON(t, srv, "PATCH", "/v1/graphs/recview/labels", `{"set":{"3":1}}`); rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}

	var slow SlowLogResponse
	hrec, _ := doJSON(t, srv, "GET", "/v1/admin/slowlog", "")
	if err := json.Unmarshal(hrec.Body.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	var traces TracesResponse
	hrec, _ = doJSON(t, srv, "GET", "/v1/admin/traces", "")
	if err := json.Unmarshal(hrec.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	slowTraces := 0
	for _, tr := range traces.Traces {
		if tr.Reason == "slow" {
			slowTraces++
		}
	}
	if len(slow.Entries) != 4 || len(slow.Entries) != slowTraces {
		t.Fatalf("slow log has %d entries, trace ring %d slow traces; want 4 of each", len(slow.Entries), slowTraces)
	}
	if slow.Entries[0].Route != "labels_patch" {
		t.Errorf("newest entry route = %q, want labels_patch", slow.Entries[0].Route)
	}
	for _, e := range slow.Entries {
		drec, _ := doJSON(t, srv, "GET", "/v1/admin/traces?id="+e.TraceID, "")
		if drec.Code != http.StatusOK {
			t.Fatalf("slow entry trace_id %q: status %d", e.TraceID, drec.Code)
		}
		var d TraceDetail
		if err := json.Unmarshal(drec.Body.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		if d.Reason != "slow" || d.Graph != e.Graph || d.Kind != e.Route || d.SpanCount != len(e.Stages)+1 {
			t.Errorf("trace %s = %s %s/%s %d spans; entry %s/%s with %d stages",
				e.TraceID, d.Reason, d.Graph, d.Kind, d.SpanCount, e.Graph, e.Route, len(e.Stages))
		}
	}
}

// TestTimelineSampleBesideDelete drives the timeline sampler against graph
// deletion. The sampler reads the registry's totals, and DELETE drops the
// graph's history from under the registry lock; the two must never wait
// on each other.
func TestTimelineSampleBesideDelete(t *testing.T) {
	srv := newMultiServer(0, Options{TimelineInterval: time.Hour})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.rec.timeline.Sample()
			}
		}
	}()
	do := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			created := do("POST", "/v1/graphs", synthBody("recdel", 30, 60))
			classified := do("POST", "/v1/graphs/recdel/classify", `{"nodes":[0]}`)
			deleted := do("DELETE", "/v1/graphs/recdel", "")
			if created != http.StatusCreated || classified != http.StatusOK || deleted != http.StatusOK {
				t.Errorf("cycle %d: create %d, classify %d, delete %d", i, created, classified, deleted)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("create/classify/DELETE loop hung beside the timeline sampler")
	}
	close(stop)
	wg.Wait()
	// A pass that raced the last DELETE may have re-emitted the graph; the
	// next pass finds no live series for it and drops them.
	srv.rec.timeline.Sample()
	if snap := srv.rec.timeline.Snapshot("recdel", false); len(snap) != 0 {
		t.Errorf("deleted graph keeps %d timeline series", len(snap))
	}
}

// TestNumericHealthEndpoint: resident graphs report their checks, cold
// graphs are listed without being built, and a resident graph carries the
// compactor check and a certified ρ(W) bracket.
func TestNumericHealthEndpoint(t *testing.T) {
	srv := newMultiServer(0, Options{})
	body := `{"name":"rechealth","synthetic":{"n":200,"m":1000,"f":0.1,"seed":7}}`
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", body); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("reccold", 200, 1000)); rec.Code != http.StatusCreated {
		t.Fatalf("create cold: status %d", rec.Code)
	}
	classifyGraph(t, srv, "rechealth")

	hrec, _ := doJSON(t, srv, "GET", "/v1/admin/health", "")
	if hrec.Code != http.StatusOK {
		t.Fatalf("health: status %d", hrec.Code)
	}
	var resp NumericHealthResponse
	if err := json.Unmarshal(hrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" {
		t.Errorf("status = %q, want ok: %+v", resp.Status, resp)
	}
	var gh *GraphHealth
	for i := range resp.Graphs {
		if resp.Graphs[i].Graph == "rechealth" {
			gh = &resp.Graphs[i]
		}
	}
	if gh == nil {
		t.Fatalf("no health entry for rechealth: %+v", resp)
	}
	want := map[string]bool{"rho_w_bracket": false, "compactor": false}
	for _, c := range gh.Checks {
		if c.Name == "rho_w_bracket" && (c.Status != "ok" || !(c.Value >= 0 && c.Value <= 1e-3)) {
			t.Errorf("rho_w_bracket = %+v, want ok with a relative width in [0, 1e-3]", c)
		}
		if _, ok := want[c.Name]; ok {
			want[c.Name] = true
		}
		if c.Status != "ok" && c.Status != "warn" {
			t.Errorf("check %s has status %q", c.Name, c.Status)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("check %s missing from %+v", name, gh.Checks)
		}
	}
	found := false
	for _, c := range resp.Cold {
		if c == "reccold" {
			found = true
		}
	}
	if !found {
		t.Errorf("cold graph not listed: %+v", resp.Cold)
	}
	// Health polling must not build engines.
	if rec, _ := doJSON(t, srv, "GET", "/v1/graphs/reccold", ""); !strings.Contains(rec.Body.String(), `"state":"cold"`) {
		t.Errorf("health poll built the cold graph: %s", rec.Body.String())
	}
}

// TestHealthOKOnSmokeTraffic replays CI's serve-smoke traffic against each
// of its tenant shapes — one estimate, then 30 rounds of a classify, a
// one-label patch and a two-edge upsert — and requires /v1/admin/health to
// read ok: healthy engines under ordinary traffic must not warn. The plain
// sync row also pins that its dropped-mass gauge sits above 1e-4, the
// level a removed threshold check warned at, so the test keeps covering
// the case that check misread.
func TestHealthOKOnSmokeTraffic(t *testing.T) {
	for _, tc := range []struct {
		name, spec  string
		asyncWait   bool
		droppedOver float64
	}{
		{name: "smokesync", spec: `"synthetic":{"n":2000,"m":10000,"f":0.1,"seed":1}`, droppedOver: 1e-4},
		{name: "smokesync07", spec: `"compact_fraction":0.07,"synthetic":{"n":2000,"m":10000,"f":0.1,"seed":1}`},
		{name: "smokeasync", spec: `"async_compact":true,"compact_fraction":0.02,"synthetic":{"n":2000,"m":10000,"f":0.1,"seed":2}`, asyncWait: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newMultiServer(0, Options{})
			body := fmt.Sprintf(`{"name":%q,"warm":true,%s}`, tc.name, tc.spec)
			if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", body); rec.Code != http.StatusCreated {
				t.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
			}
			g := "/v1/graphs/" + tc.name
			do := func(method, path, body string) {
				t.Helper()
				if rec, _ := doJSON(t, srv, method, path, body); rec.Code != http.StatusOK {
					t.Fatalf("%s %s: %d: %s", method, path, rec.Code, rec.Body.String())
				}
			}
			do("POST", g+"/estimate", `{"method":"mce"}`)
			for i := 1; i <= 30; i++ {
				u, v := (i*37)%2000, (i*91+13)%2000
				do("POST", g+"/classify", fmt.Sprintf(`{"nodes":[%d,%d,%d,%d],"top_k":2}`, u, v, u+1, v+1))
				do("PATCH", g+"/labels", fmt.Sprintf(`{"set":{"%d":%d}}`, u, i%3))
				do("PATCH", g+"/edges", fmt.Sprintf(`{"set":[[%d,%d],[%d,%d]]}`, u, (u+1000)%2000, v, (v+500)%2000))
			}
			if tc.asyncWait {
				eng, release, err := srv.Registry().Acquire(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				eng.WaitCompaction()
				release()
			}

			hrec, _ := doJSON(t, srv, "GET", "/v1/admin/health", "")
			var resp NumericHealthResponse
			if err := json.Unmarshal(hrec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("health: %d: %v", hrec.Code, err)
			}
			if resp.Status != "ok" || len(resp.Graphs) != 1 {
				t.Errorf("health after smoke traffic: %s", hrec.Body.String())
			}
			if tc.droppedOver > 0 {
				prefix := fmt.Sprintf("fg_graph_residual_dropped_mass{graph=%q} ", tc.name)
				got := math.NaN()
				for _, ln := range strings.Split(rawScrape(t, srv), "\n") {
					if v, ok := strings.CutPrefix(ln, prefix); ok {
						got, _ = strconv.ParseFloat(v, 64)
					}
				}
				if !(got > tc.droppedOver) {
					t.Errorf("%s%v, want > %v", prefix, got, tc.droppedOver)
				}
			}
		})
	}
}

// TestNumericChecksThresholds pins both checks of the rollup on each side
// of its threshold.
func TestNumericChecksThresholds(t *testing.T) {
	for _, tc := range []struct {
		name         string
		rhoUpper     float64 // ρ̄ over ρ = 10
		compactPanic string
		check        string
		status       string
		value        float64
	}{
		{name: "wide bracket", rhoUpper: 10.1, check: "rho_w_bracket", status: "warn", value: 1e-2},
		{name: "infinite bound", rhoUpper: math.Inf(1), check: "rho_w_bracket", status: "warn", value: math.MaxFloat64},
		{name: "certified bracket", rhoUpper: 10.001, check: "rho_w_bracket", status: "ok", value: 1e-4},
		{name: "compactor panicked", rhoUpper: 10, compactPanic: "compactor panic: injected", check: "compactor", status: "warn", value: 1},
		{name: "compactor fine", rhoUpper: 10, check: "compactor", status: "ok", value: 0},
	} {
		h := factorgraph.NumericHealth{RhoW: 10, RhoWUpper: tc.rhoUpper}
		checks := numericChecks(h, tc.compactPanic)
		if len(checks) != 2 || checks[0].Name != "rho_w_bracket" || checks[1].Name != "compactor" {
			t.Fatalf("%s: checks %+v, want rho_w_bracket and compactor", tc.name, checks)
		}
		for _, c := range checks {
			if c.Name != tc.check {
				if c.Status != "ok" {
					t.Errorf("%s: unrelated check %+v warns", tc.name, c)
				}
				continue
			}
			if c.Status != tc.status || math.Abs(c.Value-tc.value) > 1e-9*tc.value {
				t.Errorf("%s: %+v, want %s at %v", tc.name, c, tc.status, tc.value)
			}
			if tc.compactPanic != "" && !strings.Contains(c.Detail, tc.compactPanic) {
				t.Errorf("%s: detail %q does not carry the panic", tc.name, c.Detail)
			}
		}
	}
}

// TestPerGraphSeriesLifecycleConcurrent races live writers against DELETE
// and the admin read paths: classify goroutines hammer two graphs while
// the main goroutine deletes one mid-burst and scrapers walk /metrics,
// /v1/admin/tenants and /v1/admin/traces. A request that acquired its
// engine before the DELETE re-creates series in observe(); the registry
// re-forgets on the last pin's release, so once the writers drain, the
// deleted graph's series — including the fg_graph_cost_* families — must
// be gone for good, and the read paths' Each() snapshots must never have
// resurrected them. The -race acceptance for the recorder lifecycle.
func TestPerGraphSeriesLifecycleConcurrent(t *testing.T) {
	srv := newMultiServer(0, Options{TraceSampleRate: 1})
	// Warm graphs so label patches do attributable o(Δ) push work — on a
	// cold one a patch bills only lock-wait time.
	for _, name := range []string{"racedel", "racekeep"} {
		rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incrementalBody(name, 200, 1000))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, rec.Code)
		}
		classifyGraph(t, srv, name)
	}

	do := func(method, path, body string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}

	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	for _, path := range []string{"/metrics", "/v1/admin/tenants", "/v1/admin/traces"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
					do("GET", path, "")
				}
			}
		}(path)
	}

	stopWrite := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 6; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			name := "racedel"
			if w%2 == 1 {
				name = "racekeep"
			}
			for i := 0; ; i++ {
				select {
				case <-stopWrite:
					return
				default:
				}
				// Mostly classify, with label patches mixed in so the
				// survivor accrues attributable cost (a warm classify with
				// no pending work legitimately bills zero). Writers on the
				// deleted graph flip to 404 once the DELETE lands; anything
				// else is a real failure.
				method, path, body := "POST", "/v1/graphs/"+name+"/classify", `{"nodes":[0,1]}`
				if i%4 == 0 {
					method, path, body = "PATCH", "/v1/graphs/"+name+"/labels",
						fmt.Sprintf(`{"set":{"%d":%d}}`, (w*37+i)%200, i%3)
				}
				if code := do(method, path, body); code != http.StatusOK && code != http.StatusNotFound {
					t.Errorf("%s %s: status %d", method, path, code)
					return
				}
			}
		}(w)
	}

	time.Sleep(10 * time.Millisecond) // writers in flight before the DELETE
	if code := do("DELETE", "/v1/graphs/racedel", ""); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	time.Sleep(10 * time.Millisecond) // and still in flight after it
	close(stopWrite)
	writers.Wait()
	close(stopRead)
	readers.Wait()

	// One synchronous survivor patch after the burst drains: under -race a
	// short run can end before any concurrent racekeep patch lands, and the
	// cost assertions below need at least one attributed write.
	rec, _ := doJSON(t, srv, "PATCH", "/v1/graphs/racekeep/labels", `{"set":{"42":1}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-burst patch: status %d: %s", rec.Code, rec.Body.String())
	}

	text := rawScrape(t, srv)
	if strings.Contains(text, `graph="racedel"`) {
		t.Errorf("deleted graph's series resurrected:\n%s", grepLines(text, "racedel"))
	}
	for _, fam := range []string{
		"fg_graph_requests_total", "fg_graph_cost_pushes_total",
		"fg_graph_cost_edges_traversed_total",
	} {
		if !strings.Contains(text, fam+`{graph="racekeep"}`) {
			t.Errorf("%s missing for surviving graph", fam)
		}
	}

	// The cost report agrees: the deleted tenant is gone, the survivor is
	// billed.
	hrec, _ := doJSON(t, srv, "GET", "/v1/admin/tenants", "")
	if hrec.Code != http.StatusOK {
		t.Fatalf("tenants: status %d", hrec.Code)
	}
	var tenants TenantsResponse
	if err := json.Unmarshal(hrec.Body.Bytes(), &tenants); err != nil {
		t.Fatal(err)
	}
	var keep *TenantCost
	for i := range tenants.Tenants {
		switch tenants.Tenants[i].Graph {
		case "racedel":
			t.Errorf("deleted tenant still in cost report: %+v", tenants.Tenants[i])
		case "racekeep":
			keep = &tenants.Tenants[i]
		}
	}
	if keep == nil {
		t.Fatal("surviving tenant missing from cost report")
	}
	if keep.Requests == 0 || keep.WorkUnits == 0 {
		t.Errorf("surviving tenant has no accounted work: %+v", keep)
	}
}
