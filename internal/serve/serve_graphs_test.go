package serve

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"factorgraph"
	"factorgraph/internal/registry"
)

// newMultiServer builds an empty multi-tenant server with the given memory
// budget (0 = unlimited).
func newMultiServer(budget int64, o Options) *Server {
	return NewMulti(registry.New(registry.Options{MemoryBudget: budget}), o)
}

// synthBody is a POST /v1/graphs body for a small synthetic graph.
func synthBody(name string, n, m int) string {
	return fmt.Sprintf(`{"name":%q,"synthetic":{"n":%d,"m":%d,"f":0.1,"seed":7}}`, name, n, m)
}

func TestGraphLifecycle(t *testing.T) {
	srv := newMultiServer(0, Options{})

	// Create.
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("web", 300, 1500))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
	}
	var info registry.GraphInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "web" || info.State != "cold" || info.Nodes != 300 || info.Classes != 3 {
		t.Errorf("create response: %+v", info)
	}

	// Duplicate name → 409.
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs", synthBody("web", 100, 500))
	if rec.Code != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", rec.Code)
	}

	// First classify lazily builds the engine.
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/web/classify", `{"nodes":[0,1,2],"top_k":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("classify: status %d: %s", rec.Code, rec.Body.String())
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Count != 3 || len(cr.Results[0].Top) != 2 {
		t.Errorf("classify response: %+v", cr)
	}

	// Estimate and labels routes work per graph.
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/web/estimate", `{"method":"mce"}`)
	if rec.Code != http.StatusOK {
		t.Errorf("estimate: status %d: %s", rec.Code, rec.Body.String())
	}
	rec, _ = doJSON(t, srv, "GET", "/v1/graphs/web/labels", "")
	if rec.Code != http.StatusOK {
		t.Errorf("labels: status %d", rec.Code)
	}

	// Stats reflect the build and the hits.
	rec, _ = doJSON(t, srv, "GET", "/v1/graphs/web", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	// The first classify was the build; estimate and labels were hits.
	if info.State != "built" || info.Builds != 1 || info.Hits != 2 || info.MemBytes <= 0 {
		t.Errorf("graph info after traffic: %+v", info)
	}
	if info.LastAccessUnixMS == 0 {
		t.Error("last access not recorded")
	}

	// List + admin.
	rec, _ = doJSON(t, srv, "GET", "/v1/graphs", "")
	var list GraphListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Graphs[0].Name != "web" {
		t.Errorf("list: %+v", list)
	}
	rec, _ = doJSON(t, srv, "GET", "/v1/admin/registry", "")
	var admin AdminResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &admin); err != nil {
		t.Fatal(err)
	}
	if admin.Stats.Graphs != 1 || admin.Stats.Builds != 1 || len(admin.Graphs) != 1 {
		t.Errorf("admin: %+v", admin)
	}

	// Delete, then every route 404s.
	rec, _ = doJSON(t, srv, "DELETE", "/v1/graphs/web", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body.String())
	}
	for _, probe := range [][2]string{
		{"DELETE", "/v1/graphs/web"},
		{"GET", "/v1/graphs/web"},
		{"POST", "/v1/graphs/web/classify"},
		{"POST", "/v1/graphs/nope/estimate"},
		{"GET", "/v1/graphs/nope/labels"},
	} {
		rec, out := doJSON(t, srv, probe[0], probe[1], "")
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s after delete: status %d, want 404", probe[0], probe[1], rec.Code)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("%s %s: 404 without error body", probe[0], probe[1])
		}
	}
}

func TestGraphCreateValidation(t *testing.T) {
	srv := newMultiServer(0, Options{})
	for _, body := range []string{
		`{"synthetic":{"n":10,"m":20}}`,                                                // no name
		`{"name":"x y","synthetic":{"n":10,"m":20}}`,                                   // bad name
		`{"name":"ok"}`,                                                                // no source
		`{"name":"ok","synthetic":{"n":0,"m":0}}`,                                      // empty synthetic
		`{"name":"ok","synthetic":{"n":10,"m":20},"k":1}`,                              // bad k
		`{"name":"ok","synthetic":{"n":10,"m":20},"estimator":"bogus"}`,                // unknown estimator
		`{"name":"ok","inline":{"edges":"","labels":""}}`,                              // empty upload
		`{"name":"ok","inline":{"edges":"0\t1","labels":""}}`,                          // no seed labels
		`{"name":"ok","files":{"edges":"/e.tsv"}}`,                                     // missing labels path
		`{"name":"ok","synthetic":{"n":10,"m":20},"files":{"edges":"e","labels":"l"}}`, // two sources
		`{"name":"ok","unknown_field":1}`,
		`not json`,
	} {
		rec, out := doJSON(t, srv, "POST", "/v1/graphs", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400 (%s)", body, rec.Code, rec.Body.String())
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("body %q: missing error field", body)
		}
	}
	// A warm create of an unbuildable spec (missing files) must not leave
	// the name registered.
	body := `{"name":"ghost","files":{"edges":"/does/not/exist.tsv","labels":"/nope.tsv"},"warm":true}`
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("warm bad files: status %d, want 422 (%s)", rec.Code, rec.Body.String())
	}
	rec, _ = doJSON(t, srv, "GET", "/v1/graphs/ghost", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("failed warm create left graph registered (status %d)", rec.Code)
	}
}

// TestGraphInlineUpload admits a tiny hand-written graph over HTTP and
// queries it: two triangles bridged by one edge, two seeds per triangle
// (adjacent seeds, so MCE sees labeled neighbor pairs and learns the
// homophily).
func TestGraphInlineUpload(t *testing.T) {
	srv := newMultiServer(0, Options{})
	edges := `0\t1\n0\t2\n1\t2\n3\t4\n3\t5\n4\t5\n2\t3\n`
	labels := `0\t0\n1\t0\n4\t1\n5\t1\n`
	body := fmt.Sprintf(`{"name":"tiny","k":2,"estimator":"mce","inline":{"edges":"%s","labels":"%s"},"warm":true}`, edges, labels)
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("inline create: status %d: %s", rec.Code, rec.Body.String())
	}
	var info registry.GraphInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "built" || info.Nodes != 6 || info.Edges != 7 || info.Classes != 2 {
		t.Errorf("inline graph info: %+v", info)
	}
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/tiny/classify", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("inline classify: status %d: %s", rec.Code, rec.Body.String())
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Count != 6 {
		t.Fatalf("classified %d nodes, want 6", cr.Count)
	}
	// The unlabeled bridge nodes take their triangle's label.
	if cr.Results[2].Label != 0 || cr.Results[3].Label != 1 {
		t.Errorf("inline classification: %+v", cr.Results)
	}
}

// TestTwoGraphsServedConcurrently is the multi-tenant acceptance test: two
// registered graphs answer interleaved classify traffic from concurrent
// clients through the full HTTP stack.
func TestTwoGraphsServedConcurrently(t *testing.T) {
	srv := newMultiServer(0, Options{})
	for _, tc := range []struct {
		name string
		n, m int
	}{{"alpha", 400, 2000}, {"beta", 250, 1200}} {
		rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody(tc.name, tc.n, tc.m))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s: status %d", tc.name, rec.Code)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const goros = 8
	var wg sync.WaitGroup
	errc := make(chan error, goros)
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name, n := "alpha", 400
			if g%2 == 1 {
				name, n = "beta", 250
			}
			for i := 0; i < 15; i++ {
				body := fmt.Sprintf(`{"nodes":[%d],"top_k":2}`, (g*37+i)%n)
				resp, err := http.Post(ts.URL+"/v1/graphs/"+name+"/classify",
					"application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("classify %s: status %d", name, resp.StatusCode)
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
	for _, name := range []string{"alpha", "beta"} {
		rec, _ := doJSON(t, srv, "GET", "/v1/graphs/"+name, "")
		var info registry.GraphInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.Builds != 1 {
			t.Errorf("%s built %d times under concurrent first requests, want 1", name, info.Builds)
		}
	}
}

// TestEvictionTransparentOverHTTP is the memory-pressure acceptance test
// over HTTP. With a budget that fits partially-released engines but not
// full ones, the tier-1 shed keeps BOTH graphs resident — alternating
// between them never rebuilds (that is the partial-release payoff: rebuild
// after pressure is a re-solve, not a re-parse). Under a budget below even
// a shed footprint the ladder escalates to full eviction and the evicted
// graph rebuilds transparently (with its H persisted) on next access.
func TestEvictionTransparentOverHTTP(t *testing.T) {
	classify := func(srv *Server, name string) {
		t.Helper()
		rec, _ := doJSON(t, srv, "POST", "/v1/graphs/"+name+"/classify", `{"nodes":[1]}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("classify %s: status %d: %s", name, rec.Code, rec.Body.String())
		}
	}
	adminStats := func(srv *Server) registry.Stats {
		t.Helper()
		rec, _ := doJSON(t, srv, "GET", "/v1/admin/registry", "")
		var admin AdminResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &admin); err != nil {
			t.Fatal(err)
		}
		return admin.Stats
	}

	// Tier 1: both engines stay resident, one of them shed; no rebuild ever
	// happens. The budget holds one warm engine plus one shed one but not
	// two warm ones; a warm engine is measured (one query on an unbudgeted
	// server), since it is well under the EstimateEngineBytes admission
	// figure.
	probe := newMultiServer(0, Options{})
	if rec, _ := doJSON(t, probe, "POST", "/v1/graphs", synthBody("probe", 300, 1500)); rec.Code != http.StatusCreated {
		t.Fatalf("create probe: status %d", rec.Code)
	}
	classify(probe, "probe")
	budget := adminStats(probe).ResidentBytes * 7 / 4
	srv := newMultiServer(budget, Options{})
	for _, name := range []string{"hot", "cold"} {
		rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody(name, 300, 1500))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, rec.Code)
		}
	}
	classify(srv, "hot")
	classify(srv, "cold")
	classify(srv, "hot")
	st := adminStats(srv)
	if st.Builds != 2 || st.Evictions != 0 || st.Built != 2 {
		t.Errorf("tier-1 stats: %+v, want 2 builds, 0 evictions, 2 built (shed keeps both resident)", st)
	}
	if st.PartialReleases == 0 {
		t.Errorf("no partial releases under pressure: %+v", st)
	}
	if st.ResidentBytes <= 0 || st.ResidentBytes > budget {
		t.Errorf("resident %d outside (0, budget=%d]", st.ResidentBytes, budget)
	}

	// Tier 2: budget below a shed footprint — full evictions, transparent
	// rebuilds.
	budget = factorgraph.EstimateEngineBytes(300, 1500, 3, false) / 4
	srv = newMultiServer(budget, Options{})
	for _, name := range []string{"hot", "cold"} {
		rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody(name, 300, 1500))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, rec.Code)
		}
	}
	classify(srv, "hot")  // builds hot; evicted on release
	classify(srv, "cold") // builds cold; evicted on release
	classify(srv, "hot")  // transparent rebuild of hot
	st = adminStats(srv)
	if st.Builds != 3 || st.Evictions != 3 {
		t.Errorf("tier-2 stats: %+v, want 3 builds, 3 evictions", st)
	}
}

// TestClassifyGzip: content-coding negotiation on point replies and streams
// alike. Codings are case-insensitive, x-gzip is gzip, q=0 refuses it.
func TestClassifyGzip(t *testing.T) {
	srv, _ := newTestServer(t, 500, 3000)
	for _, tc := range []struct {
		accept string
		gzip   bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"br, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"identity", false},
		{"", false},
	} {
		for _, stream := range []bool{false, true} {
			body := fmt.Sprintf(`{"top_k":2,"stream":%v}`, stream)
			req := httptest.NewRequest("POST", testPath("classify"), strings.NewReader(body))
			if tc.accept != "" {
				req.Header.Set("Accept-Encoding", tc.accept)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%q stream=%v: status %d: %s", tc.accept, stream, rec.Code, rec.Body.String())
			}
			want := ""
			if tc.gzip {
				want = "gzip"
			}
			if enc := rec.Header().Get("Content-Encoding"); enc != want {
				t.Fatalf("%q stream=%v: Content-Encoding %q, want %q", tc.accept, stream, enc, want)
			}
			var rd io.Reader = rec.Body
			if tc.gzip {
				gz, err := gzip.NewReader(rec.Body)
				if err != nil {
					t.Fatalf("%q stream=%v: %v", tc.accept, stream, err)
				}
				rd = gz
			}
			if stream {
				sc := bufio.NewScanner(rd)
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				lines := 0
				for sc.Scan() {
					var r factorgraph.NodeResult
					if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
						t.Fatalf("line %d: %v", lines, err)
					}
					lines++
				}
				if err := sc.Err(); err != nil {
					t.Fatal(err)
				}
				if lines != 500 {
					t.Errorf("%q stream: %d lines, want 500", tc.accept, lines)
				}
			} else {
				var cr ClassifyResponse
				if err := json.NewDecoder(rd).Decode(&cr); err != nil {
					t.Fatal(err)
				}
				if cr.Count != 500 {
					t.Errorf("%q response: count %d, want 500", tc.accept, cr.Count)
				}
			}
		}
	}
	// Errors on gzip-accepting requests stay identity-encoded JSON.
	req := httptest.NewRequest("POST", testPath("classify"), strings.NewReader(`{"nodes":[99999],"stream":true}`))
	req.Header.Set("Accept-Encoding", "gzip")
	rec2 := httptest.NewRecorder()
	srv.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("invalid gzip request: status %d", rec2.Code)
	}
	if enc := rec2.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("error response Content-Encoding %q, want identity", enc)
	}
}

// TestFlushEveryConfigurable exercises a server configured to flush every
// record; the stream must still be complete and well-formed.
func TestFlushEveryConfigurable(t *testing.T) {
	srv := newMultiServer(0, Options{FlushEvery: 1})
	rec, _ := doJSON(t, srv, "POST", "/v1/graphs", synthBody("g", 200, 1000))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/v1/graphs/g/classify", `{"stream":true,"top_k":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("classify: status %d: %s", rec.Code, rec.Body.String())
	}
	sc := bufio.NewScanner(rec.Body)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != 200 {
		t.Errorf("flush-every-1 stream: %d lines, want 200", lines)
	}
}

// TestUnprefixedRoutesGone: every engine-backed request names its graph.
// The single-graph paths POST /v1/estimate, POST /v1/classify and
// GET|PATCH /v1/labels answer 404 even with a graph named "default"
// registered, and never reach its engine: its query, patch and estimation
// counters do not move.
func TestUnprefixedRoutesGone(t *testing.T) {
	eng := newTestEngine(t, 300, 1500)
	reg := registry.New(registry.Options{})
	if err := reg.RegisterEngine("default", eng); err != nil {
		t.Fatal(err)
	}
	srv := NewMulti(reg, Options{})
	before := eng.Stats()
	for _, probe := range []struct{ method, route, body string }{
		{"POST", "estimate", `{"method":"mce","apply":true}`},
		{"POST", "classify", `{"nodes":[0]}`},
		{"GET", "labels", ""},
		{"PATCH", "labels", `{"set":{"0":1}}`},
	} {
		path := "/v1/" + probe.route // the route without a graph name
		if rec, _ := doJSON(t, srv, probe.method, path, probe.body); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, path, rec.Code)
		}
	}
	after := eng.Stats()
	if after.Queries != before.Queries || after.LabelUpdates != before.LabelUpdates || after.Estimations != before.Estimations {
		t.Errorf("unprefixed routes reached the engine: %+v -> %+v", before, after)
	}
	if rec, _ := doJSON(t, srv, "POST", "/v1/graphs/default/classify", `{"nodes":[0]}`); rec.Code != http.StatusOK {
		t.Errorf("named classify on the default graph: status %d", rec.Code)
	}
}
