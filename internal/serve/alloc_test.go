package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"factorgraph/internal/registry"
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
// headers, the slow-log threshold and the engine's read scratch are
// allocation-light by design; 46 allocations before they were, 15 after.
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
	const maxAllocs = 17
	if got := testing.AllocsPerRun(500, serve); got > maxAllocs {
		t.Errorf("a warm point classify allocates %.0f times, want ≤ %d", got, maxAllocs)
	}
}

// TestStreamAllocBytes pins the bytes a warm full-graph top-2 stream over
// 2 000 nodes allocates, from a runtime.MemStats delta: the records' Top
// slab (n·k ClassScore, 96 KB) and the per-request cost, but not the n-sized
// labels and scores the engine copies out under its read lock (64 KB), which
// come from a pool.
func TestStreamAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race")
	}
	eng := newTestEngine(t, 2000, 10000)
	defer eng.Close()
	reg := registry.New(registry.Options{})
	if err := reg.RegisterEngine(testGraph, eng); err != nil {
		t.Fatal(err)
	}
	srv := NewMulti(reg, Options{TraceSampleRate: -1}) // no sampled trace to store
	defer srv.Close()
	w := &discardWriter{header: http.Header{}}
	stream := func() {
		srv.ServeHTTP(w, httptest.NewRequest("POST", testPath("classify"), strings.NewReader(`{"top_k":2,"stream":true}`)))
	}
	for i := 0; i < 8; i++ { // the cold solve, the pools, the per-graph series
		stream()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	perStream := (after.TotalAlloc - before.TotalAlloc) / runs
	// 104 768 measured, 170 300 with labels and scores allocated per query;
	// the headroom covers a pool emptied by a collection mid-loop.
	const maxBytes = 2000*3*16 + 20<<10
	if perStream > maxBytes {
		t.Errorf("a warm 2 000-record stream allocates %d bytes, want ≤ %d", perStream, maxBytes)
	}
}
