package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"factorgraph/internal/telemetry"
)

// resetBody is a request body that can be replayed.
type resetBody struct {
	bytes.Reader
	b []byte
}

func (r *resetBody) Close() error { return nil }
func (r *resetBody) reset()       { r.Reset(r.b) }

// memWriter is an http.ResponseWriter whose header map and body buffer are
// reused across requests.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
func (w *memWriter) reset() { clear(w.header); w.status = 0; w.body.Reset() }

// pointRequest is a warm point classify as a client sends it: 32 nodes,
// top_k 2, the canonical encoding/json body and an unsampled traceparent
// whose trace id the head sampler never keeps.
func pointRequest(t testing.TB, n int) (*http.Request, *resetBody) {
	nodes := make([]int, 32)
	for i := range nodes {
		nodes[i] = (i * 7919) % n
	}
	b, err := json.Marshal(ClassifyRequest{Nodes: nodes, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	body := &resetBody{b: b}
	body.reset()
	req := httptest.NewRequest("POST", testPath("classify"), body) // a ReadCloser: kept as the Body
	req.Header.Set("Content-Type", "application/json")
	var tid telemetry.TraceID
	binary.BigEndian.PutUint64(tid[:8], 0x0123456789abcdef)
	binary.BigEndian.PutUint64(tid[8:], 1<<63|42)
	req.Header.Set("traceparent", telemetry.Traceparent(tid, telemetry.SpanID{7}, false))
	return req, body
}

// TestPointRequestAllocs pins what a warm point classify allocates through
// Server.ServeHTTP with a reused request and writer: the count, not a
// clock, so the test holds on any host. The decode, the request trace, its
// headers and the slow-log threshold are allocation-light by design; 46
// allocations before they were.
func TestPointRequestAllocs(t *testing.T) {
	srv, eng := newTestServer(t, 2000, 10000)
	defer eng.Close()
	req, body := pointRequest(t, 2000)
	w := &memWriter{header: make(http.Header)}
	serve := func() {
		body.reset()
		w.reset()
		srv.ServeHTTP(w, req)
	}
	for i := 0; i < 64; i++ { // warm the engine, the pools and the per-graph series
		serve()
	}
	if w.status != http.StatusOK {
		t.Fatalf("classify: status %d: %s", w.status, w.body.String())
	}
	const maxAllocs = 26
	if got := testing.AllocsPerRun(500, serve); got > maxAllocs {
		t.Errorf("a warm point classify allocates %.0f times, want ≤ %d", got, maxAllocs)
	}
}
