package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"factorgraph/internal/telemetry"
)

// TestTraceEndToEnd is the tracing acceptance walk: every engine-backed
// route echoes a client traceparent's trace id under a server root span; a
// classify carrying one is head-sampled, its span tree lands in the trace
// store under the client's trace id, the latency histogram emits an
// exemplar pointing at that id, and the per-tenant cost series reconcile
// with the engine's own residual work counters.
func TestTraceEndToEnd(t *testing.T) {
	srv := newMultiServer(0, Options{TraceSampleRate: 1})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incrementalBody("tracee2e", 200, 1000))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	classifyGraph(t, srv, "tracee2e") // warm: build + resolve off the measured path

	// The client mints a trace context but leaves it UNSAMPLED (flags 00):
	// the server's head sampler owns the verdict. The classify row's trace
	// is walked below.
	var tid telemetry.TraceID
	var parent telemetry.SpanID
	for _, rt := range []struct{ method, route, body string }{
		{"POST", "classify", `{"nodes":[0,1,2],"top_k":2}`},
		{"POST", "estimate", `{"method":"mce"}`},
		{"GET", "labels", ""},
		{"PATCH", "labels", `{"set":{"5":1}}`},
		{"PATCH", "edges", `{"set":[[0,7]]}`},
	} {
		rowTID, rowParent := telemetry.NewTraceID(), telemetry.NewSpanID()
		req := httptest.NewRequest(rt.method, "/v1/graphs/tracee2e/"+rt.route, strings.NewReader(rt.body))
		req.Header.Set("traceparent", telemetry.Traceparent(rowTID, rowParent, false))
		hrec := httptest.NewRecorder()
		srv.ServeHTTP(hrec, req)
		if hrec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", rt.method, rt.route, hrec.Code, hrec.Body.String())
		}
		// The response traceparent proves propagation: same trace id, the
		// server's root span (not our parent), and the sampled flag set.
		rtid, rsid, rsampled, ok := telemetry.ParseTraceparent(hrec.Header().Get("traceparent"))
		if !ok {
			t.Fatalf("%s %s: response traceparent %q does not parse", rt.method, rt.route, hrec.Header().Get("traceparent"))
		}
		if rtid != rowTID {
			t.Errorf("%s %s: response trace id %s, want %s (context not propagated)", rt.method, rt.route, rtid, rowTID)
		}
		if rsid == rowParent {
			t.Errorf("%s %s: response parent span id %s echoes ours — no server span minted", rt.method, rt.route, rsid)
		}
		if !rsampled {
			t.Errorf("%s %s: rate-1 sampler left the response unsampled", rt.method, rt.route)
		}
		if rt.route == "classify" {
			tid, parent = rowTID, rowParent
		}
	}

	// The stored trace resolves by the client's id and spans every layer:
	// serve root (the kind), the engine stage, and the residual/exec tier.
	drec, _ := doJSON(t, srv, "GET", "/v1/admin/traces?id="+tid.String(), "")
	if drec.Code != http.StatusOK {
		t.Fatalf("traces?id=: status %d: %s", drec.Code, drec.Body.String())
	}
	var detail TraceDetail
	if err := json.Unmarshal(drec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.TraceID != tid.String() || detail.Graph != "tracee2e" || detail.Kind != "classify" {
		t.Errorf("stored trace = %s/%s/%s, want %s/tracee2e/classify",
			detail.TraceID, detail.Graph, detail.Kind, tid)
	}
	if !detail.Remote || detail.RemoteParentID != parent.String() {
		t.Errorf("remote=%v parent=%s, want remote link to %s", detail.Remote, detail.RemoteParentID, parent)
	}
	if detail.Reason != "head" {
		t.Errorf("capture reason %q, want head", detail.Reason)
	}
	if detail.SpanCount < 4 || detail.Depth < 3 {
		t.Errorf("span tree %d spans deep %d, want ≥4 spans ≥3 deep: %+v",
			detail.SpanCount, detail.Depth, detail.Spans)
	}
	names := map[string]bool{}
	for _, sp := range detail.Spans {
		names[sp.Name] = true
	}
	if !names["classify"] || !names["engine.classify"] {
		t.Errorf("span names %v missing serve/engine layers", names)
	}
	lower := false
	for _, n := range []string{"residual_direct", "overlay_flush", "emit"} {
		lower = lower || names[n]
	}
	if !lower {
		t.Errorf("span names %v missing the exec/residual layer", names)
	}

	// The per-graph latency histogram carries the exemplar, and the
	// exemplar's id is retrievable from the store — the metrics→trace walk.
	text := rawScrape(t, srv)
	want := `graph="tracee2e"`
	found := ""
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, "fg_graph_request_duration_seconds_bucket") &&
			strings.Contains(ln, want) && strings.Contains(ln, `trace_id="`) {
			found = ln
			break
		}
	}
	if found == "" {
		t.Fatalf("no exemplar on tracee2e latency buckets:\n%s", grepLines(text, "tracee2e"))
	}
	exID := found[strings.Index(found, `trace_id="`)+len(`trace_id="`):]
	exID = exID[:strings.Index(exID, `"`)]
	erec, _ := doJSON(t, srv, "GET", "/v1/admin/traces?id="+exID, "")
	if erec.Code != http.StatusOK {
		t.Errorf("exemplar trace %s does not resolve: status %d", exID, erec.Code)
	}

	// Cost reconciliation: a patch burst's per-tenant cost deltas must
	// agree (±5%) with the engine's process-wide residual counters — the
	// attribution is the same work, counted at a different layer.
	base, err := telemetry.ParseTextTotals(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		prec, _ := doJSON(t, srv, "PATCH", "/v1/graphs/tracee2e/labels",
			fmt.Sprintf(`{"set":{"%d":%d}}`, (i*17)%200, i%3))
		if prec.Code != http.StatusOK {
			t.Fatalf("patch %d: status %d: %s", i, prec.Code, prec.Body.String())
		}
	}
	after, err := telemetry.ParseTextTotals(strings.NewReader(rawScrape(t, srv)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{"fg_graph_cost_pushes_total", "fg_residual_pushes_total"},
		{"fg_graph_cost_edges_traversed_total", "fg_residual_edges_traversed_total"},
	} {
		cost := after[pair[0]] - base[pair[0]]
		engine := after[pair[1]] - base[pair[1]]
		if cost <= 0 || engine <= 0 {
			t.Errorf("%s delta %v vs %s delta %v: burst did no attributable work", pair[0], cost, pair[1], engine)
			continue
		}
		if math.Abs(cost-engine)/engine > 0.05 {
			t.Errorf("%s delta %v diverges >5%% from %s delta %v", pair[0], cost, pair[1], engine)
		}
	}

	// The cost report bills the burst to the tenant.
	trec, _ := doJSON(t, srv, "GET", "/v1/admin/tenants", "")
	if trec.Code != http.StatusOK {
		t.Fatalf("tenants: status %d", trec.Code)
	}
	var tenants TenantsResponse
	if err := json.Unmarshal(trec.Body.Bytes(), &tenants); err != nil {
		t.Fatal(err)
	}
	for _, tc := range tenants.Tenants {
		if tc.Graph == "tracee2e" {
			if tc.WorkUnits == 0 || tc.Pushes == 0 || tc.CostShare <= 0 {
				t.Errorf("tenant row has no billed work: %+v", tc)
			}
			return
		}
	}
	t.Errorf("tenant tracee2e missing from cost report: %+v", tenants.Tenants)
}
