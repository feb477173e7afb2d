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

// TestIncrementalWhatIfOverHTTP: extra_seeds queries on an incremental
// graph report overlay push/clone counts and do not leak into the graph.
func TestIncrementalWhatIfOverHTTP(t *testing.T) {
	srv := newMultiServer(0, Options{})
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs", incrementalBody("inc", 500, 2500)); rec.Code != 201 {
		t.Fatalf("create: status %d", rec.Code)
	}
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs/inc/classify",
		`{"nodes":[10],"top_k":2,"extra_seeds":{"10":1}}`)
	if rec.Code != 200 {
		t.Fatalf("what-if: status %d: %s", rec.Code, rec.Body.String())
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Residual {
		t.Errorf("what-if did not use the residual overlay: %s", rec.Body.String())
	}
	if cr.PushedNodes == 0 || cr.ClonedRows == 0 {
		t.Errorf("overlay reported no work: %+v", cr)
	}
	if cr.Results[0].Label != 1 {
		t.Errorf("overlaid node label %d, want 1", cr.Results[0].Label)
	}
	// Engine state untouched: the same node answers its base label and the
	// response carries no overlay counters.
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/inc/classify", `{"nodes":[10]}`)
	var base ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	if base.PushedNodes != 0 || base.ClonedRows != 0 {
		t.Errorf("plain query reports overlay counters: %+v", base)
	}
}

// TestValidationOfResidualSpec: out-of-range residual knobs are rejected at
// registration, not at first build — and the fields that used to select
// the second engine are unknown fields, not silently ignored.
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
	for _, field := range []string{`"incremental":false`, `"incremental":true`, `"f32_beliefs":true`} {
		rec, _ = doJSON(t, srv, "POST", "/v1/graphs",
			`{"name":"gone","synthetic":{"n":100,"m":500},`+field+`}`)
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "unknown field") {
			t.Errorf("%s: status %d body %s, want 400 unknown field", field, rec.Code, rec.Body.String())
		}
	}
}

// TestEstimateGzip: /v1/estimate honors Accept-Encoding: gzip.
func TestEstimateGzip(t *testing.T) {
	srv, _ := newTestServer(t, 500, 3000)
	req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(`{"method":"mce"}`))
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
	req = httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(`{"method":"mce"}`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if enc := rec.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("unrequested Content-Encoding %q", enc)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
}
