package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"factorgraph"
)

// patchEdgesRaw sends body to PATCH …/edges as a JSON EdgesPatch or, with
// ndjson set, as an application/x-ndjson op stream.
func patchEdgesRaw(srv *Server, graph, body string, ndjson bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest("PATCH", "/v1/graphs/"+graph+"/edges", strings.NewReader(body))
	if ndjson {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestEdgesPatchAddNodesLimit: a request may append at most maxAddNodes
// nodes, counted over the whole body in either format; past it the answer is
// 400 before anything is allocated, and the graph is as it was.
func TestEdgesPatchAddNodesLimit(t *testing.T) {
	srv, eng := newTestServer(t, 300, 1500)
	n0, m0 := eng.Dims()
	lines := func(counts ...any) string {
		var b strings.Builder
		for _, c := range counts {
			fmt.Fprintf(&b, `{"op":"add_nodes","count":%v}`+"\n", c)
		}
		return b.String() + `{"op":"set","u":0,"v":1}`
	}
	for _, tc := range []struct {
		why, body string
		ndjson    bool
	}{
		{"the 24-byte body", `{"add_nodes":2000000000}`, false},
		{"one past the limit", fmt.Sprintf(`{"add_nodes":%d,"set":[[0,1]]}`, maxAddNodes+1), false},
		{"MaxInt64", `{"add_nodes":9223372036854775807}`, false},
		{"NDJSON single count", lines(2000000000), true},
		{"NDJSON sum one past the limit", lines(maxAddNodes, 1), true},
		{"NDJSON sum overflowing int", lines("9223372036854775807", "9223372036854775807"), true},
		{"NDJSON sum overflowing int below the per-op limit", lines(maxAddNodes, "9223372036854775807"), true},
	} {
		rec := patchEdgesRaw(srv, testGraph, tc.body, tc.ndjson)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.why, rec.Code, rec.Body.String())
		}
		if n, m := eng.Dims(); n != n0 || m != m0 {
			t.Fatalf("%s: rejected request moved dims (%d,%d) → (%d,%d)", tc.why, n0, m0, n, m)
		}
	}
	// At the limit is allowed in principle; a small batch certainly is.
	if rec := patchEdgesRaw(srv, testGraph, lines(1, 2), true); rec.Code != http.StatusOK {
		t.Fatalf("ordinary NDJSON growth: %d: %s", rec.Code, rec.Body.String())
	}
	if n, _ := eng.Dims(); n != n0+3 {
		t.Errorf("nodes = %d after adding 3 to %d", n, n0)
	}
}

// FuzzEdgesPatch: no PATCH …/edges body — JSON or NDJSON — panics the
// handler or answers 5xx; a 2xx acknowledges exactly the dimensions the
// engine then has, anything else leaves them untouched; and the graph still
// answers a point classify afterwards. Every input runs against its own
// small warm engine, so a failing input reproduces alone.
func FuzzEdgesPatch(f *testing.F) {
	for _, s := range []string{
		`{"set":[[0,1],[2,3,0.5]]}`,
		`{"remove":[[0,1],[4,5]]}`,
		`{"add_nodes":2,"set":[[60,61],[60,0]],"compact":true}`,
		`{"compact":true}`,
		`{"set":[[7,7]]}`,
		`{"set":[[0,1,-1]]}`,
		`{"set":[[0,1,0]]}`,
		`{"set":[[0,1,1e308]]}`,
		`{"set":[[0,60]]}`,
		`{"set":[[-1,2]]}`,
		`{"set":[[1e300,2]]}`,
		`{"add_nodes":-1}`,
		`{"add_nodes":0}`,
		`{"add_nodes":2000000000}`,
		`{"bogus":true}`,
		`{"set":[[0,1]`,
		``,
		`{"op":"set","u":1,"v":2}` + "\n" + `{"op":"set","u":3,"v":4,"w":0.5}`,
		`{"op":"remove","u":1,"v":2}` + "\n" + `{"op":"compact"}`,
		`{"op":"add_nodes","count":3}` + "\n" + `{"op":"set","u":60,"v":62}`,
		`{"op":"set","u":5,"v":5}`,
		`{"op":"set","u":0,"v":1,"w":-2}`,
		`{"op":"set","u":0,"v":1,"w":0}`,
		`{"op":"set","u":0,"v":1,"w":1e308}`,
		`{"op":"set","u":0,"v":60}`,
		`{"op":"remove","u":-1,"v":2}`,
		`{"op":"add_nodes","count":-1}`,
		`{"op":"add_nodes","count":0}`,
		`{"op":"add_nodes","count":2000000000}`,
		`{"op":"frobnicate"}`,
		`{"op":"set","u":1,"v":2}` + "\n" + `{"op":"set","u":3,`,
	} {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	const n, k = 60, 3
	h := factorgraph.SkewedH(k, 8)
	g, truth, err := factorgraph.Generate(factorgraph.GenerateConfig{N: n, M: 240, K: k, H: h, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	seeds, err := factorgraph.SampleSeeds(truth, k, 0.2, 3)
	if err != nil {
		f.Fatal(err)
	}
	srv := newMultiServer(0, Options{})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool) {
		eng, err := factorgraph.NewEngineWithH(g, seeds, k, h, "gold")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Registry().RegisterEngine("fz", eng); err != nil {
			t.Fatal(err)
		}
		defer srv.Registry().Delete("fz")
		classify := func(node int) {
			rec, _ := doJSON(t, srv, "POST", "/v1/graphs/fz/classify", fmt.Sprintf(`{"nodes":[%d],"top_k":%d}`, node, k))
			if rec.Code != http.StatusOK {
				t.Fatalf("classify node %d: %d: %s", node, rec.Code, rec.Body.String())
			}
		}
		classify(0) // warm
		n0, m0 := eng.Dims()
		rec := patchEdgesRaw(srv, "fz", string(body), ndjson)
		nodes, edges := eng.Dims()
		switch {
		case rec.Code >= 500:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		case rec.Code/100 == 2:
			var resp EdgesPatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("bad 2xx body %q: %v", rec.Body.String(), err)
			}
			if resp.Nodes != nodes || resp.Edges != edges || nodes != n0+resp.AddedNodes {
				t.Fatalf("acknowledged %d nodes (+%d) / %d edges, engine has (%d,%d) from (%d,%d)",
					resp.Nodes, resp.AddedNodes, resp.Edges, nodes, edges, n0, m0)
			}
		default:
			if nodes != n0 || edges != m0 {
				t.Fatalf("status %d moved dims (%d,%d) → (%d,%d)", rec.Code, n0, m0, nodes, edges)
			}
		}
		classify(0)
		classify(nodes - 1)
	})
}
