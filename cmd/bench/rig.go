package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"factorgraph"
	"factorgraph/internal/registry"
	"factorgraph/internal/serve"
)

// rig is one program under test: an incremental engine registered in a
// registry behind a serve.Server, configured as cmd/serve configures them
// by default, optionally listening on a loopback port.
type rig struct {
	eng  *factorgraph.Engine
	reg  *registry.Registry
	srv  *serve.Server
	http *http.Server
	base string     // "http://127.0.0.1:port"; empty when not listening
	done chan error // http.Server.Serve's return

	engineDur time.Duration // NewEngine's (or NewEngineWithH's) share of the build
}

// newRig builds the rig from an edge list and seed labels. h == nil runs
// the default estimator (DCEr); otherwise h is installed as the estimate,
// which is how the traced ladder gives three engines the same H.
func newRig(n int, edges [][2]int32, seeds []int, k int, h *factorgraph.Matrix, listen bool) (*rig, error) {
	g, err := factorgraph.NewGraph(n, edges)
	if err != nil {
		return nil, err
	}
	r := &rig{}
	start := time.Now()
	opts := factorgraph.EngineOptions{Incremental: true} // cmd/serve's -incremental default
	if h == nil {
		r.eng, err = factorgraph.NewEngine(g, seeds, k, opts)
	} else {
		r.eng, err = factorgraph.NewEngineWithH(g, seeds, k, h, "bench", opts)
	}
	if err != nil {
		return nil, err
	}
	r.engineDur = time.Since(start)
	r.reg = registry.New(registry.Options{})
	if err := r.reg.RegisterEngine(graphName, r.eng); err != nil {
		r.eng.Close()
		return nil, err
	}
	// cmd/serve's defaults: flush every 256 records, an info-level text
	// logger on stderr (so the per-request Debug call is level-gated, not
	// absent), 1 % head sampling, default recorder rings.
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	r.srv = serve.NewMulti(r.reg, serve.Options{FlushEvery: 256, Logger: logger})
	if !listen {
		return r, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.http = &http.Server{Handler: r.srv, ReadHeaderTimeout: 10 * time.Second}
	r.done = make(chan error, 1)
	go func() { r.done <- r.http.Serve(ln) }()
	return r, nil
}

// close shuts the listener down, waits for the serve goroutine, stops the
// recorder's sampler and closes the engine.
func (r *rig) close() {
	if r.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = r.http.Shutdown(ctx) // a timeout here only means a connection is force-closed below
		cancel()
		_ = r.http.Close()
		<-r.done
	}
	r.srv.Close()
	_ = r.reg.Delete(graphName) // closes the engine; the graph is known to be registered
}

// outcome is what one issued request produced, at any depth.
type outcome struct {
	wall   time.Duration
	wire   bool  // a wire depth (http, serve): the reply is bytes, not NodeResults
	status int   // HTTP status; 200 for a successful engine-depth call
	bytes  int64 // response body size
	lines  int   // newline count of the body (NDJSON records)
	body   []byte

	// Engine-depth only: the work attribution the Engine returns.
	lockWait, flush time.Duration
	pushes, edges   int
	cloned          int
	fellBack        bool
	cached          bool
	overlayFrac     float64
	labelsOK        bool // every emitted label was in [0,k)
	results         int  // NodeResults emitted
}

// issuer sends one request at one depth. The returned body is valid until
// the next issue on the same issuer.
type issuer interface {
	issue(rq *request) (outcome, error)
}

// issuerFunc adapts a function to an issuer.
type issuerFunc func(rq *request) (outcome, error)

func (f issuerFunc) issue(rq *request) (outcome, error) { return f(rq) }

// bodySink receives a response body. Point-sized bodies are kept for the
// checks; a stream body (megabytes) is only counted.
type bodySink struct {
	keep  bool
	buf   bytes.Buffer
	bytes int64
	lines int
}

func (s *bodySink) reset(keep bool) {
	s.keep, s.bytes, s.lines = keep, 0, 0
	s.buf.Reset()
}

func (s *bodySink) Write(p []byte) (int, error) {
	s.bytes += int64(len(p))
	s.lines += bytes.Count(p, []byte{'\n'})
	if s.keep {
		s.buf.Write(p)
	}
	return len(p), nil
}

// httpIssuer is the outermost depth: a client with one persistent loopback
// connection. Compression is off so a stream's bytes are the NDJSON bytes.
type httpIssuer struct {
	base   string
	client *http.Client
	sink   bodySink
	chunk  []byte
}

func newHTTPIssuer(base string) *httpIssuer {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpIssuer{base: base, client: &http.Client{Transport: tr}, chunk: make([]byte, 64<<10)}
}

func (h *httpIssuer) close() { h.client.CloseIdleConnections() }

func (h *httpIssuer) issue(rq *request) (outcome, error) {
	start := time.Now()
	req, err := http.NewRequest(rq.method, h.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return outcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", rq.traceparent)
	resp, err := h.client.Do(req)
	if err != nil {
		return outcome{}, err
	}
	h.sink.reset(rq.keep)
	_, err = io.CopyBuffer(&h.sink, resp.Body, h.chunk)
	resp.Body.Close()
	wall := time.Since(start)
	if err != nil {
		return outcome{}, fmt.Errorf("short response: %w", err)
	}
	return outcome{wall: wall, wire: true, status: resp.StatusCode, bytes: h.sink.bytes, lines: h.sink.lines, body: h.sink.buf.Bytes()}, nil
}

// memWriter is the in-memory http.ResponseWriter of the serve depth.
type memWriter struct {
	header http.Header
	status int
	sink   bodySink
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.sink.Write(p)
}
func (w *memWriter) Flush() {}

// serveIssuer is the middle depth: Server.ServeHTTP called directly with an
// in-memory writer — routing, decode, the handler, JSON emit, telemetry,
// but no socket.
type serveIssuer struct {
	srv *serve.Server
	w   memWriter
}

func (s *serveIssuer) issue(rq *request) (outcome, error) {
	start := time.Now()
	req, err := http.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return outcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", rq.traceparent)
	s.w.header, s.w.status = make(http.Header), 0
	s.w.sink.reset(rq.keep)
	s.srv.ServeHTTP(&s.w, req)
	wall := time.Since(start)
	return outcome{wall: wall, wire: true, status: s.w.status, bytes: s.w.sink.bytes, lines: s.w.sink.lines, body: s.w.sink.buf.Bytes()}, nil
}

// engineIssuer is the innermost depth: the Engine method the handler calls,
// with a sink that validates labels and counts results but encodes nothing.
type engineIssuer struct {
	eng *factorgraph.Engine
}

func (e engineIssuer) issue(rq *request) (outcome, error) {
	out := outcome{status: http.StatusOK, labelsOK: true}
	k := e.eng.K()
	sink := func(res factorgraph.NodeResult) error {
		out.results++
		if res.Label < 0 || res.Label >= k {
			out.labelsOK = false
		}
		return nil
	}
	var err error
	start := time.Now()
	switch rq.kind {
	case opPoint, opStream, opWhatIf:
		var meta factorgraph.QueryMeta
		meta, err = e.eng.ClassifyEachMeta(rq.query, sink)
		out.pushes, out.edges, out.cloned, out.cached = meta.PushedNodes, meta.TouchedEdges, meta.ClonedRows, meta.CacheHit
	case opPatch:
		var meta factorgraph.PatchMeta
		meta, err = e.eng.UpdateLabelsMetaCtx(context.Background(), rq.set, nil)
		out.lockWait, out.flush = seconds(meta.LockWaitSeconds), seconds(meta.FlushSeconds)
		out.pushes, out.edges, out.fellBack = meta.PushedNodes, meta.TouchedEdges, meta.FellBack
	case opMutate:
		var meta factorgraph.MutateMeta
		meta, err = e.eng.MutateTopologyCtx(context.Background(), 0, rq.muts)
		out.lockWait, out.flush = seconds(meta.LockWaitSeconds), seconds(meta.FlushSeconds)
		out.pushes, out.edges, out.fellBack, out.overlayFrac = meta.PushedNodes, meta.TouchedEdges, meta.FellBack, meta.OverlayFraction
	case opCompact:
		_, err = e.eng.CompactTopology()
	default:
		err = errors.New("unknown op kind")
	}
	out.wall = time.Since(start)
	return out, err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
