package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"factorgraph"
	"factorgraph/internal/registry"
)

// testGraph is the name newTestServer registers its engine under.
const testGraph = "test"

// testPath is the path of one of testGraph's routes, e.g. "classify".
func testPath(route string) string { return "/v1/graphs/" + testGraph + "/" + route }

// newTestServer plants a graph, builds an engine and registers it as
// testGraph of a fresh multi-tenant Server.
func newTestServer(t *testing.T, n, m int) (*Server, *factorgraph.Engine) {
	t.Helper()
	eng := newTestEngine(t, n, m)
	reg := registry.New(registry.Options{})
	if err := reg.RegisterEngine(testGraph, eng); err != nil {
		t.Fatal(err)
	}
	return NewMulti(reg, Options{}), eng
}

// newTestEngine plants an n-node, m-edge 3-class graph and builds its engine.
func newTestEngine(t *testing.T, n, m int) *factorgraph.Engine {
	t.Helper()
	h := factorgraph.SkewedH(3, 8)
	g, truth, err := factorgraph.Generate(factorgraph.GenerateConfig{
		N: n, M: m, K: 3, H: h, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := factorgraph.SampleSeeds(truth, 3, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := factorgraph.NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func doJSON(t *testing.T, srv *Server, method, path, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	out := map[string]json.RawMessage{}
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, out
}

// TestHealthz: the liveness probe reports registry totals and never touches
// an engine.
func TestHealthz(t *testing.T) {
	srv, eng := newTestServer(t, 500, 3000)
	before := eng.Stats()
	rec, _ := doJSON(t, srv, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Graphs != 1 || h.GraphsBuilt != 1 || h.ResidentBytes <= 0 || h.GoVersion == "" {
		t.Errorf("bad health: %+v", h)
	}
	if after := eng.Stats(); after != before {
		t.Errorf("liveness probe moved engine counters: %+v -> %+v", before, after)
	}
}

// TestClassify1000SequentialRequests is the HTTP half of the serving
// acceptance criterion: 1000 sequential classify requests against a
// cached 100k-edge planted graph, with estimation run exactly once and
// propagation exactly once.
func TestClassify1000SequentialRequests(t *testing.T) {
	srv, eng := newTestServer(t, 20000, 100000)
	for i := 0; i < 1000; i++ {
		node := (i * 41) % eng.Graph().N
		rec, _ := doJSON(t, srv, "POST", testPath("classify"),
			fmt.Sprintf(`{"nodes":[%d],"top_k":2}`, node))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count != 1 || resp.Results[0].Node != node || len(resp.Results[0].Top) != 2 {
			t.Fatalf("request %d: bad response %+v", i, resp)
		}
	}
	st := eng.Stats()
	if st.Estimations != 1 {
		t.Errorf("1000 requests ran %d estimations, want 1", st.Estimations)
	}
	if st.Propagations != 1 {
		t.Errorf("1000 requests ran %d propagations, want 1", st.Propagations)
	}
}

func TestClassifyStreamNDJSON(t *testing.T) {
	srv, eng := newTestServer(t, 2000, 12000)
	rec, _ := doJSON(t, srv, "POST", testPath("classify"), `{"top_k":3,"stream":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var r factorgraph.NodeResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if r.Node != lines {
			t.Fatalf("line %d: node %d out of order", lines, r.Node)
		}
		if len(r.Top) != 3 {
			t.Fatalf("line %d: %d top scores, want 3", lines, len(r.Top))
		}
		lines++
	}
	if lines != eng.Graph().N {
		t.Errorf("streamed %d lines, want %d", lines, eng.Graph().N)
	}

	// A valid zero-record stream still gets the NDJSON content type.
	rec, _ = doJSON(t, srv, "POST", testPath("classify"), `{"nodes":[],"stream":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty stream status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("empty stream content type %q", ct)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("empty stream wrote %d bytes", rec.Body.Len())
	}
}

func TestClassifyValidation(t *testing.T) {
	srv, _ := newTestServer(t, 200, 1000)
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"nodes":[99999]}`, http.StatusBadRequest},
		{`{"top_k":-1}`, http.StatusBadRequest},
		{`{"extra_seeds":{"abc":1}}`, http.StatusBadRequest},
		{`{"extra_seeds":{"0":99}}`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"nodes":[99999],"stream":true}`, http.StatusBadRequest}, // validated before first record
		{``, http.StatusOK},                                        // empty body = classify everything
	} {
		rec, out := doJSON(t, srv, "POST", testPath("classify"), tc.body)
		if rec.Code != tc.code {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.code, rec.Body.String())
		}
		if tc.code != http.StatusOK {
			if _, ok := out["error"]; !ok {
				t.Errorf("body %q: error response missing error field", tc.body)
			}
		}
	}
}

func TestClassifyExtraSeedsOverHTTP(t *testing.T) {
	srv, eng := newTestServer(t, 500, 3000)
	node := -1
	for i, c := range eng.Seeds() {
		if c == factorgraph.Unlabeled {
			node = i
			break
		}
	}
	rec, _ := doJSON(t, srv, "POST", testPath("classify"),
		fmt.Sprintf(`{"nodes":[%d],"extra_seeds":{"%d":2}}`, node, node))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Label != 2 {
		t.Errorf("what-if label = %d, want 2", resp.Results[0].Label)
	}
	if eng.Seeds()[node] != factorgraph.Unlabeled {
		t.Error("extra seed persisted in engine")
	}
}

func TestEstimateEndpoint(t *testing.T) {
	srv, eng := newTestServer(t, 500, 3000)
	rec, _ := doJSON(t, srv, "POST", testPath("estimate"), `{"method":"mce"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Method != "MCE" || len(resp.H) != 3 || len(resp.H[0]) != 3 {
		t.Errorf("bad estimate response: %+v", resp)
	}
	if resp.Applied {
		t.Error("apply=false reported applied")
	}
	if eng.Estimate().Method != "DCEr" {
		t.Error("non-apply estimate mutated the engine")
	}

	rec, _ = doJSON(t, srv, "POST", testPath("estimate"), `{"method":"mce","apply":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("apply status %d: %s", rec.Code, rec.Body.String())
	}
	if eng.Estimate().Method != "MCE" {
		t.Errorf("apply did not install H: method %q", eng.Estimate().Method)
	}

	rec, _ = doJSON(t, srv, "POST", testPath("estimate"), `{"method":"nope"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown method: status %d", rec.Code)
	}

	// Estimator names are case-insensitive across all entry points.
	rec, _ = doJSON(t, srv, "POST", testPath("estimate"), `{"method":"DCEr"}`)
	if rec.Code != http.StatusOK {
		t.Errorf("mixed-case method: status %d: %s", rec.Code, rec.Body.String())
	}

	// A negative lmax is the caller's mistake, not a handler panic.
	rec, _ = doJSON(t, srv, "POST", testPath("estimate"), `{"lmax":-1}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("negative lmax: status %d, want 400 (%s)", rec.Code, rec.Body.String())
	}

	// Options on estimators that take none are rejected, not ignored.
	rec, _ = doJSON(t, srv, "POST", testPath("estimate"), `{"method":"mce","lambda":2}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("mce with options: status %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
}

func TestLabelsGetAndPatch(t *testing.T) {
	srv, eng := newTestServer(t, 500, 3000)
	rec, _ := doJSON(t, srv, "GET", testPath("labels"), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var lr LabelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Count == 0 || len(lr.Labels) != lr.Count {
		t.Errorf("bad labels response: count=%d len=%d", lr.Count, len(lr.Labels))
	}

	node := -1
	for i, c := range eng.Seeds() {
		if c == factorgraph.Unlabeled {
			node = i
			break
		}
	}
	rec, _ = doJSON(t, srv, "PATCH", testPath("labels"),
		fmt.Sprintf(`{"set":{"%d":1}}`, node))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch status %d: %s", rec.Code, rec.Body.String())
	}
	var pr LabelsPatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Labeled != lr.Count+1 {
		t.Errorf("labeled = %d, want %d", pr.Labeled, lr.Count+1)
	}
	if eng.Seeds()[node] != 1 {
		t.Error("patch did not apply")
	}

	rec, _ = doJSON(t, srv, "PATCH", testPath("labels"),
		fmt.Sprintf(`{"remove":[%d]}`, node))
	if rec.Code != http.StatusOK {
		t.Fatalf("remove status %d: %s", rec.Code, rec.Body.String())
	}
	if eng.Seeds()[node] != factorgraph.Unlabeled {
		t.Error("remove did not apply")
	}

	// Validation.
	for _, body := range []string{
		`{}`, `{"set":{"abc":1}}`, `{"set":{"0":9}}`, `{"remove":[-4]}`,
	} {
		rec, _ = doJSON(t, srv, "PATCH", testPath("labels"), body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("patch %q: status %d, want 400", body, rec.Code)
		}
	}

	// Reestimate after updates.
	before := eng.Stats().Estimations
	rec, _ = doJSON(t, srv, "PATCH", testPath("labels"),
		fmt.Sprintf(`{"set":{"%d":1},"reestimate":true}`, node))
	if rec.Code != http.StatusOK {
		t.Fatalf("reestimate status %d: %s", rec.Code, rec.Body.String())
	}
	if got := eng.Stats().Estimations; got != before+1 {
		t.Errorf("reestimate ran %d estimations, want %d", got, before+1)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t, 200, 1000)
	rec, _ := doJSON(t, srv, "DELETE", testPath("classify"), "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE classify: status %d, want 405", rec.Code)
	}
	rec, _ = doJSON(t, srv, "GET", "/nope", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", rec.Code)
	}
}

// TestConcurrentHTTP hammers the server with parallel classify and patch
// requests; run with -race to exercise the engine's locking through the
// full HTTP stack.
func TestConcurrentHTTP(t *testing.T) {
	srv, _ := newTestServer(t, 1000, 8000)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const goros = 8
	var wg sync.WaitGroup
	errc := make(chan error, goros*2)
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf(`{"nodes":[%d],"top_k":2}`, (g*100+i)%1000)
				resp, err := http.Post(ts.URL+testPath("classify"), "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("classify status %d", resp.StatusCode)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < 10; i++ {
				node := (g*50 + i) % 1000
				body := fmt.Sprintf(`{"set":{"%d":%d}}`, node, i%3)
				req, err := http.NewRequest("PATCH", ts.URL+testPath("labels"), strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("patch status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
