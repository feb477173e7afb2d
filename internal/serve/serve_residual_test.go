package serve

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// incrementalBody is a POST /v1/graphs body for a warm graph whose generous
// edge budget keeps small test graphs on the push path (their frontiers
// saturate long before the default budget expects).
func incrementalBody(name string, n, m int) string {
	return fmt.Sprintf(`{"name":%q,"synthetic":{"n":%d,"m":%d,"f":0.1,"seed":7},"residual_edge_budget":256,"warm":true}`, name, n, m)
}

// TestIncrementalPatchOverHTTP: PATCH /labels on a warm graph reports mode
// "residual" with pushed-node counts, and subsequent classify answers
// reflect the patch without a propagation.
func TestIncrementalPatchOverHTTP(t *testing.T) {
	srv := newMultiServer(0, Options{})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incrementalBody("inc", 500, 2500))
	if rec.Code != 201 {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
	}
	// Warm the residual state: the first classify pays the initial solve.
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/inc/classify", `{"nodes":[0]}`)
	if rec.Code != 200 {
		t.Fatalf("warm classify: status %d: %s", rec.Code, rec.Body.String())
	}

	rec, _ = doJSON(t, srv, "PATCH", "/v1/graphs/inc/labels", `{"set":{"3":2,"4":1}}`)
	if rec.Code != 200 {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}
	var pr LabelsPatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Mode != "residual" {
		t.Errorf("patch mode = %q, want residual (resp %s)", pr.Mode, rec.Body.String())
	}
	if pr.PushedNodes == 0 || pr.TouchedEdges == 0 {
		t.Errorf("patch reported no push work: %+v", pr)
	}

	// The patched node serves its new label from live residual rows.
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/inc/classify", `{"nodes":[3]}`)
	var cr ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Residual {
		t.Errorf("post-patch classify did not report the residual path: %s", rec.Body.String())
	}
	if len(cr.Results) != 1 || cr.Results[0].Label != 2 {
		t.Errorf("patched node label: %+v", cr.Results)
	}

	// A cold graph (registered, never queried) reports mode "full".
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs", synthBody("plain", 500, 2500))
	if rec.Code != 201 {
		t.Fatalf("create plain: status %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "PATCH", "/v1/graphs/plain/labels", `{"set":{"3":2}}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Mode != "full" {
		t.Errorf("plain patch mode = %q, want full", pr.Mode)
	}
}

// TestIncrementalWhatIfOverHTTP: extra_seeds queries report their session's
// push/clone counts — within the edge budget and flooding past it alike —
// bill that work to the tenant, are never counted as full propagations and
// do not leak into the graph.
func TestIncrementalWhatIfOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		flood      bool
	}{
		{"inc", incrementalBody("inc", 500, 2500), false},
		// The default budget: a what-if floods it on a graph this small.
		{"flood", synthBody("flood", 500, 2500), true},
	} {
		srv := newMultiServer(0, Options{})
		if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", tc.body); rec.Code != 201 {
			t.Fatalf("%s: create: status %d", tc.name, rec.Code)
		}
		classify := "/v1/graphs/" + tc.name + "/classify"
		// Warm: the first classify pays the graph's one full solve.
		if rec, _ := doJSON(t, srv, "POST", classify, `{"nodes":[0]}`); rec.Code != 200 {
			t.Fatalf("%s: warm classify: status %d: %s", tc.name, rec.Code, rec.Body.String())
		}
		before := scrape(t, srv)
		rec, _ := doJSON(t, srv, "POST", classify, `{"nodes":[10],"top_k":2,"extra_seeds":{"10":1}}`)
		if rec.Code != 200 {
			t.Fatalf("%s: what-if: status %d: %s", tc.name, rec.Code, rec.Body.String())
		}
		var cr ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatal(err)
		}
		if !cr.Residual || cr.FellBack != tc.flood {
			t.Errorf("%s: what-if residual=%v fell_back=%v, want true/%v: %s",
				tc.name, cr.Residual, cr.FellBack, tc.flood, rec.Body.String())
		}
		if cr.PushedNodes == 0 || cr.TouchedEdges == 0 || cr.ClonedRows == 0 {
			t.Errorf("%s: what-if reported no work: %+v", tc.name, cr)
		}
		if cr.Results[0].Label != 1 {
			t.Errorf("%s: overlaid node label %d, want 1", tc.name, cr.Results[0].Label)
		}
		after := scrape(t, srv)
		if d := after["fg_engine_propagations_total"] - before["fg_engine_propagations_total"]; d != 0 {
			t.Errorf("%s: what-if counted as %v full propagations", tc.name, d)
		}
		for series, want := range map[string]int{
			"fg_graph_cost_pushes_total":          cr.PushedNodes,
			"fg_graph_cost_edges_traversed_total": cr.TouchedEdges,
		} {
			if d := after[series] - before[series]; d != float64(want) {
				t.Errorf("%s: %s rose by %v, the reply reports %d", tc.name, series, d, want)
			}
		}
		// Engine state untouched: the same node answers its base label and
		// the response carries no what-if counters.
		rec, _ = doJSON(t, srv, "POST", classify, `{"nodes":[10]}`)
		var base ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &base); err != nil {
			t.Fatal(err)
		}
		if base.PushedNodes != 0 || base.ClonedRows != 0 {
			t.Errorf("%s: plain query reports what-if counters: %+v", tc.name, base)
		}
	}
}

// TestValidationOfResidualSpec: out-of-range residual knobs are rejected at
// registration, not at first build — and the fields that used to select
// the second engine or a node reordering are unknown fields, not silently
// ignored.
func TestValidationOfResidualSpec(t *testing.T) {
	srv := newMultiServer(0, Options{})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs",
		`{"name":"ok","synthetic":{"n":100,"m":500},"residual_tol":1e-6}`)
	if rec.Code != 201 {
		t.Errorf("residual_tol on its own: status %d, want 201", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs",
		`{"name":"bad2","synthetic":{"n":100,"m":500},"residual_tol":-1}`)
	if rec.Code != 400 {
		t.Errorf("negative residual_tol: status %d, want 400", rec.Code)
	}
	for _, field := range []string{`"incremental":false`, `"incremental":true`, `"f32_beliefs":true`, `"reorder":""`, `"reorder":"degree"`} {
		rec, _ = doJSON(t, srv, "POST", "/v1/graphs",
			`{"name":"gone","synthetic":{"n":100,"m":500},`+field+`}`)
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "unknown field") {
			t.Errorf("%s: status %d body %s, want 400 unknown field", field, rec.Code, rec.Body.String())
		}
	}
}

// TestEstimateGzip: POST …/estimate honors Accept-Encoding: gzip.
func TestEstimateGzip(t *testing.T) {
	srv, _ := newTestServer(t, 500, 3000)
	req := httptest.NewRequest("POST", testPath("estimate"), strings.NewReader(`{"method":"mce"}`))
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("estimate: status %d: %s", rec.Code, rec.Body.String())
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var er EstimateResponse
	if err := json.Unmarshal(blob, &er); err != nil {
		t.Fatalf("bad gzipped body: %v", err)
	}
	if er.Method == "" || len(er.H) != 3 {
		t.Errorf("estimate response: %+v", er)
	}
	// Without the header the body stays uncompressed.
	req = httptest.NewRequest("POST", testPath("estimate"), strings.NewReader(`{"method":"mce"}`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if enc := rec.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("unrequested Content-Encoding %q", enc)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
}

// TestLabelOnlyWhatIfOverHTTP: a flooding what-if that asks only labels of
// explicit nodes stops on its label certificate — "certified":true, one
// more fg_residual_certified_stops_total — with the labels the same what-if
// reports when it asks for scores and drains to the tolerance.
func TestLabelOnlyWhatIfOverHTTP(t *testing.T) {
	srv := newMultiServer(0, Options{})
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("flood", 500, 2500)); rec.Code != 201 {
		t.Fatalf("create: status %d", rec.Code)
	}
	classify := "/v1/graphs/flood/classify"
	if rec, _ := doJSON(t, srv, "POST", classify, `{"nodes":[0]}`); rec.Code != 200 {
		t.Fatalf("warm classify: status %d: %s", rec.Code, rec.Body.String())
	}
	ask := func(body string) ClassifyResponse {
		t.Helper()
		rec, _ := doJSON(t, srv, "POST", classify, body)
		if rec.Code != 200 {
			t.Fatalf("what-if: status %d: %s", rec.Code, rec.Body.String())
		}
		var cr ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}
	before := scrape(t, srv)
	got := ask(`{"nodes":[10,20,30,40],"extra_seeds":{"10":1,"11":2,"12":0}}`)
	after := scrape(t, srv)
	want := ask(`{"nodes":[10,20,30,40],"top_k":3,"extra_seeds":{"10":1,"11":2,"12":0}}`)
	if !got.Certified || want.Certified {
		t.Fatalf("certified: label-only %v, with scores %v; want true, false", got.Certified, want.Certified)
	}
	if d := after["fg_residual_certified_stops_total"] - before["fg_residual_certified_stops_total"]; d < 1 {
		t.Errorf("fg_residual_certified_stops_total rose by %v across a certified stop", d)
	}
	for i, r := range got.Results {
		if r.Label != want.Results[i].Label {
			t.Errorf("node %d: certified label %d, drained label %d", r.Node, r.Label, want.Results[i].Label)
		}
	}
}
