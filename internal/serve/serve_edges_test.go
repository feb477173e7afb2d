package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"factorgraph"
)

// incSynthBody registers a warm synthetic graph.
func incSynthBody(name string, n, m int) string {
	return fmt.Sprintf(`{"name":%q,"warm":true,"synthetic":{"n":%d,"m":%d,"f":0.1,"seed":7}}`, name, n, m)
}

func patchEdges(t *testing.T, srv *Server, graph, body string) (*httptest.ResponseRecorder, EdgesPatchResponse) {
	t.Helper()
	rec, _ := doJSON(t, srv, "PATCH", "/v1/graphs/"+graph+"/edges", body)
	var resp EdgesPatchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad edges response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

// TestEdgesPatchLifecycle drives the full streaming-mutation surface over
// HTTP: batched adds/removes, node additions, forced compaction, admin
// counters, and the consistency of subsequent queries.
func TestEdgesPatchLifecycle(t *testing.T) {
	srv := newMultiServer(0, Options{})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incSynthBody("live", 400, 2000))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
	}
	// Warm query so mutations ride the residual subsystem.
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs/live/classify", `{"nodes":[0]}`); rec.Code != http.StatusOK {
		t.Fatalf("warm classify: %d", rec.Code)
	}

	// Batched JSON mutation: add a node wired to two existing nodes and
	// remove nothing yet.
	rec, resp := patchEdges(t, srv, "live", `{"add_nodes":1,"set":[[400,1],[400,2],[5,9]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("edges patch: %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Nodes != 401 || resp.AddedNodes != 1 || resp.SetEdges != 3 {
		t.Errorf("patch response: %+v", resp)
	}
	if resp.Mode != "residual" || resp.PushedNodes == 0 {
		t.Errorf("warm mutation not residual: %+v", resp)
	}
	if resp.OverlayFraction <= 0 {
		t.Errorf("overlay fraction %v after mutation, want > 0", resp.OverlayFraction)
	}

	// The added node is queryable immediately.
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/live/classify", `{"nodes":[400],"top_k":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("classify new node: %d: %s", rec.Code, rec.Body.String())
	}

	// Remove one of the edges again, forcing a compaction with it.
	rec, resp = patchEdges(t, srv, "live", `{"remove":[[5,9],[7,333]],"compact":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("remove patch: %d: %s", rec.Code, rec.Body.String())
	}
	if resp.RemovedEdges != 1 || resp.MissingRemoves != 1 {
		t.Errorf("remove accounting: %+v", resp)
	}
	if !resp.Compacted || resp.OverlayFraction != 0 {
		t.Errorf("forced compaction not applied: %+v", resp)
	}

	// Admin surfaces the mutation counters and overlay fraction.
	rec, _ = doJSON(t, srv, "GET", "/v1/admin/registry", "")
	var admin AdminResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &admin); err != nil {
		t.Fatal(err)
	}
	if admin.Stats.EdgeMutations != 4 {
		t.Errorf("admin edge mutations = %d, want 4", admin.Stats.EdgeMutations)
	}
	found := false
	for _, g := range admin.Graphs {
		if g.Name == "live" {
			found = true
			if g.EdgeMutations != 4 || g.TopoCompactions == 0 {
				t.Errorf("graph info counters: %+v", g)
			}
			if g.Nodes != 401 {
				t.Errorf("admin nodes = %d, want 401 (refreshed live dims)", g.Nodes)
			}
			if !g.Mutated {
				t.Error("mutated flag not set after topology mutations")
			}
		}
	}
	if !found {
		t.Fatal("graph missing from admin listing")
	}
}

// TestEdgesPatchNDJSON streams the mutation feed line by line.
func TestEdgesPatchNDJSON(t *testing.T) {
	srv := newMultiServer(0, Options{})
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incSynthBody("live", 300, 1500)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs/live/classify", `{"nodes":[0]}`); rec.Code != http.StatusOK {
		t.Fatal("warm classify failed")
	}
	body := strings.Join([]string{
		`{"op":"add_nodes","count":2}`,
		`{"op":"set","u":300,"v":301}`,
		`{"op":"set","u":300,"v":4,"w":2}`,
		`{"op":"remove","u":300,"v":301}`,
	}, "\n")
	req := httptest.NewRequest("PATCH", "/v1/graphs/live/edges", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("NDJSON patch: %d: %s", rec.Code, rec.Body.String())
	}
	var resp EdgesPatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Nodes != 302 || resp.AddedNodes != 2 || resp.SetEdges != 2 || resp.RemovedEdges != 1 {
		t.Errorf("NDJSON patch response: %+v", resp)
	}

	// Unknown op → 400.
	req = httptest.NewRequest("PATCH", "/v1/graphs/live/edges", strings.NewReader(`{"op":"frobnicate"}`))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown op: %d, want 400", rec.Code)
	}
}

// TestEdgesPatchErrors covers the rejection paths: malformed bodies and
// out-of-range endpoints (400), unknown graphs (404).
func TestEdgesPatchErrors(t *testing.T) {
	srv := newMultiServer(0, Options{})
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incSynthBody("live", 200, 1000)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	for body, why := range map[string]string{
		`{}`:                   "empty patch",
		`{"set":[[1]]}`:        "short set tuple",
		`{"set":[[1.5,2]]}`:    "fractional node id",
		`{"set":[[0,200]]}`:    "out-of-range endpoint",
		`{"set":[[0,1,-3]]}`:   "negative weight",
		`{"set":[[7,7]]}`:      "self-loop upsert",
		`{"remove":[[7,7]]}`:   "self-loop removal",
		`{"remove":[[1,2,3]]}`: "long remove tuple",
		`{"add_nodes":-1}`:     "negative add_nodes",
		`{"bogus":true}`:       "unknown field",
	} {
		if rec, _ := patchEdges(t, srv, "live", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s (%s): %d, want 400", why, body, rec.Code)
		}
	}
	if rec, _ := patchEdges(t, srv, "missing", `{"set":[[0,1]]}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown graph: %d, want 404", rec.Code)
	}
}

// TestCompactionTriggers counts what compacts a graph. Only three things
// may: the overlay-fraction trigger, compact:true (CompactTopology) and the
// contraction guard. Estimation never does — dcer, dce, mce and Reestimate
// all read the live overlay — and an estimator request the engine cannot
// serve is a 400, naming the three it does, that neither compacts nor
// counts as an estimation.
func TestCompactionTriggers(t *testing.T) {
	srv, eng := newTestServer(t, 500, 3000)
	// One new node wired in by one new edge: a dirty overlay far below the
	// fraction trigger and the contraction guard.
	if rec, resp := patchEdges(t, srv, testGraph, `{"add_nodes":1,"set":[[500,0]]}`); rec.Code != http.StatusOK || resp.Compacted {
		t.Fatalf("dirtying patch: %d %+v", rec.Code, resp)
	}
	compactions := func() (int64, float64) {
		return eng.Stats().TopoCompactions, scrape(t, srv)["fg_engine_compactions_total"]
	}
	engBefore, metBefore := compactions()
	for _, method := range []string{"dcer", "dce", "mce"} {
		if _, err := eng.EstimateWith(method, factorgraph.EstimateOptions{}); err != nil {
			t.Fatalf("EstimateWith(%s): %v", method, err)
		}
	}
	if _, err := eng.Reestimate(); err != nil {
		t.Fatal(err)
	}
	estimations := eng.Stats().Estimations
	for _, tc := range []struct{ path, body string }{
		{testPath("estimate"), `{"method":"holdout"}`},
		{testPath("estimate"), `{"method":"lce"}`},
		{testPath("estimate"), `{"method":"nope"}`},
		{testPath("estimate"), `{"method":"mce","lambda":2}`},
		{testPath("estimate"), `{"method":"dcer","lmax":-1}`},
		{"/v1/graphs", `{"name":"baseline","estimator":"lce","synthetic":{"n":100,"m":500}}`},
	} {
		rec, out := doJSON(t, srv, "POST", tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400 (%s)", tc.path, tc.body, rec.Code, rec.Body.String())
			continue
		}
		if strings.Contains(tc.body, "lmax") || strings.Contains(tc.body, "lambda") {
			continue // an options error, not a name error
		}
		if msg := string(out["error"]); !strings.Contains(msg, "dcer, dce or mce") {
			t.Errorf("POST %s %s: error %s does not name dcer, dce and mce", tc.path, tc.body, msg)
		}
	}
	if e, m := compactions(); e != engBefore || m != metBefore {
		t.Errorf("estimation compacted: engine %d -> %d, fg_engine_compactions_total %v -> %v", engBefore, e, metBefore, m)
	}
	if got := eng.Stats().Estimations; got != estimations {
		t.Errorf("refused estimates counted: %d -> %d estimations", estimations, got)
	}
	if eng.TopoStats().OverlayFraction == 0 {
		t.Error("overlay no longer dirty without a compaction")
	}
	// compact:true is a trigger.
	if rec, resp := patchEdges(t, srv, testGraph, `{"compact":true}`); rec.Code != http.StatusOK || !resp.Compacted {
		t.Fatalf("compact:true: %d %+v", rec.Code, resp)
	}
	if e, _ := compactions(); e != engBefore+1 {
		t.Errorf("compact:true: %d compactions, want %d", e, engBefore+1)
	}
}

// TestNextFlushInterval pins the backpressure controller's boundaries:
// slow flushes double the interval up to the cap, fast ones halve it back
// to the floor, mid-range latencies leave it alone.
func TestNextFlushInterval(t *testing.T) {
	const base = 256
	cases := []struct {
		cur  int
		dur  time.Duration
		want int
	}{
		{base, slowFlushLatency + time.Millisecond, 2 * base},           // slow → double
		{2 * base, slowFlushLatency + time.Millisecond, 4 * base},       // keeps doubling
		{base * maxFlushScale, time.Second, base * maxFlushScale},       // capped
		{base * maxFlushScale / 2, time.Second, base * maxFlushScale},   // doubles to exactly the cap
		{base, slowFlushLatency, base},                                  // boundary: not strictly slower
		{4 * base, fastFlushLatency / 2, 2 * base},                      // fast → halve
		{2 * base, fastFlushLatency / 2, base},                          // halves to the floor
		{base, fastFlushLatency / 2, base},                              // never below the floor
		{base, fastFlushLatency, base},                                  // boundary: not strictly faster
		{2 * base, (slowFlushLatency + fastFlushLatency) / 2, 2 * base}, // mid-range: hold
	}
	for _, c := range cases {
		if got := nextFlushInterval(c.cur, base, c.dur); got != c.want {
			t.Errorf("nextFlushInterval(%d, %d, %v) = %d, want %d", c.cur, base, c.dur, got, c.want)
		}
	}
}

// TestStreamingAdaptiveFlush: a streaming classify against a slow writer
// must still deliver every record (the adaptive interval changes flush
// cadence, never correctness).
func TestStreamingAdaptiveFlush(t *testing.T) {
	srv, _ := newTestServer(t, 500, 3000)
	req := httptest.NewRequest("POST", testPath("classify"), strings.NewReader(`{"stream":true}`))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 500 {
		t.Fatalf("streamed %d records, want 500", len(lines))
	}
}

// TestEdgesPatchAsyncCompact registers an async_compact graph, drives it
// past the compaction threshold, and checks the epoch swap happens off the
// mutation path: the tripping PATCH returns compacting=true instead of
// compacted=true, and the background install eventually surfaces in the
// admin counters while queries keep serving.
func TestEdgesPatchAsyncCompact(t *testing.T) {
	srv := newMultiServer(0, Options{})
	body := `{"name":"bg","async_compact":true,"compact_fraction":0.02,"warm":true,"synthetic":{"n":400,"m":2000,"f":0.1,"seed":7}}`
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", body); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
	}
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs/bg/classify", `{"nodes":[0]}`); rec.Code != http.StatusOK {
		t.Fatalf("warm classify: %d", rec.Code)
	}
	sawPending := false
	for i := 0; i < 120; i++ {
		u, v := (i*3)%400, (i*7+11)%400
		if u == v {
			v = (v + 1) % 400
		}
		rec, resp := patchEdges(t, srv, "bg", fmt.Sprintf(`{"set":[[%d,%d]]}`, u, v))
		if rec.Code != http.StatusOK {
			t.Fatalf("patch %d: %d: %s", i, rec.Code, rec.Body.String())
		}
		if resp.Compacted {
			t.Fatalf("async graph compacted synchronously on patch %d: %+v", i, resp)
		}
		if resp.Compacting {
			sawPending = true
		}
	}
	if !sawPending {
		t.Error("no patch reported compacting=true despite crossing the threshold")
	}
	// The background swap lands shortly. Topology counters are refreshed
	// at request release, so poll with a query in front of each admin read.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec, _ := doJSON(t, srv, "POST", "/v1/graphs/bg/classify", `{"nodes":[1,2,3]}`); rec.Code != http.StatusOK {
			t.Fatalf("classify during swap: %d", rec.Code)
		}
		rec, _ := doJSON(t, srv, "GET", "/v1/admin/registry", "")
		var admin AdminResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &admin); err != nil {
			t.Fatal(err)
		}
		done := false
		for _, g := range admin.Graphs {
			if g.Name == "bg" && g.AsyncCompactions > 0 && !g.Compacting {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background compaction never installed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
