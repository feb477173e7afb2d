package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"factorgraph"
	"factorgraph/internal/registry"
)

// checkEncode asserts that appendFn renders v exactly as
// json.NewEncoder(w).Encode(v) does, its newline aside — or, when
// encoding/json refuses v, that appendFn fails too and leaves the buffer it
// was given as it was.
func checkEncode[T any](t testing.TB, v *T, appendFn func([]byte, *T) ([]byte, error)) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(v)
	const prefix = "prefix"
	got, err := appendFn([]byte(prefix), v)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%+v: appender error %v, encoding/json error %v", *v, err, wantErr)
	case err != nil:
		if string(got) != prefix {
			t.Fatalf("%+v: failed append left %q, want %q", *v, got, prefix)
		}
	case !bytes.Equal(append(got[len(prefix):], '\n'), want.Bytes()):
		t.Fatalf("%+v:\n got %s\nwant %s", *v, got[len(prefix):], want.Bytes())
	}
}

func appendFloatPtr(b []byte, f *float64) ([]byte, error) { return appendFloat(b, *f) }

var floatTable = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, -2.0 / 3, 0.1, 100, 123456789,
	1e-6, -1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e-300,
	1e20, 1e21, -1e21, 999999999999999999999.0, 1e22, 1e100, 1e300,
	math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1<<53 + 2, -(1<<53 + 2),
	5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// randFloat draws a score from every regime encoding/json distinguishes.
func randFloat(rng *rand.Rand) float64 {
	switch rng.IntN(4) {
	case 0:
		return math.Float64frombits(rng.Uint64()) // NaN and ±Inf included
	case 1:
		return rng.Float64() // what a belief score looks like
	case 2:
		return (2*rng.Float64() - 1) * math.Pow(10, float64(rng.IntN(660)-330))
	default:
		return floatTable[rng.IntN(len(floatTable))]
	}
}

func randInt(rng *rand.Rand) int {
	if rng.IntN(8) == 0 {
		return int(int64(rng.Uint64()))
	}
	return rng.IntN(1 << 20)
}

func randNodeResult(rng *rand.Rand) factorgraph.NodeResult {
	k := 1 + rng.IntN(8)
	r := factorgraph.NodeResult{Node: randInt(rng), Label: rng.IntN(k)}
	if topk := rng.IntN(k + 1); topk > 0 || rng.IntN(2) == 0 {
		r.Top = make([]factorgraph.ClassScore, topk) // empty and non-nil is omitted too
	}
	for i := range r.Top {
		r.Top[i] = factorgraph.ClassScore{Class: rng.IntN(k), Score: randFloat(rng)}
	}
	return r
}

var stageNames = []string{"residual_direct", "emit", "a<b>&c", `q"uote\`, "ctl\x01\n\t", "bad\xffutf8", "sep\u2028", ""}

func randClassifyResponse(rng *rand.Rand) ClassifyResponse {
	resp := ClassifyResponse{
		Count:    randInt(rng),
		Residual: rng.IntN(2) == 0,
		FellBack: rng.IntN(2) == 0,
	}
	switch rng.IntN(3) {
	case 1:
		resp.Results = []factorgraph.NodeResult{}
	case 2:
		for i := 1 + rng.IntN(4); i > 0; i-- {
			resp.Results = append(resp.Results, randNodeResult(rng))
		}
	}
	for _, f := range []*int{&resp.PushedNodes, &resp.TouchedEdges, &resp.ClonedRows} {
		if rng.IntN(2) == 0 {
			*f = randInt(rng)
		}
	}
	if rng.IntN(2) == 0 {
		resp.Stages = []StageTiming{}
		for i := rng.IntN(4); i > 0; i-- {
			resp.Stages = append(resp.Stages, StageTiming{
				Stage: stageNames[rng.IntN(len(stageNames))], Us: randFloat(rng),
			})
		}
	}
	return resp
}

// TestEncodeMatchesEncodingJSON: byte identity with encoding/json is the
// appenders' contract — on a float table covering both format switches and
// the edges of appendShortestF's range, alone and as a record's score, and
// on 100 000 seeded random records and replies.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	for i, f := range floatTable {
		checkEncode(t, &floatTable[i], appendFloatPtr)
		r := factorgraph.NodeResult{Node: i, Top: []factorgraph.ClassScore{{Class: 1, Score: f}, {Score: -f}}}
		checkEncode(t, &r, appendNodeResult)
	}
	rng := rand.New(rand.NewPCG(25, 25))
	for i := 0; i < 100_000; i++ {
		f := math.Float64frombits(rng.Uint64())
		checkEncode(t, &f, appendFloatPtr)
		r := randNodeResult(rng)
		checkEncode(t, &r, appendNodeResult)
		resp := randClassifyResponse(rng)
		checkEncode(t, &resp, appendClassifyResponse)
	}
}

// FuzzClassifyEncode: arbitrary ints, flags, float64 bit patterns and stage
// names render exactly as encoding/json renders them, and both refuse
// NaN/±Inf.
func FuzzClassifyEncode(f *testing.F) {
	seed := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(seed())
	f.Add(seed(0x1f, 7, 2, 1, math.Float64bits(0.75), 0, math.Float64bits(0.25)))
	for _, v := range []float64{1e-7, 1e21, 5e-324, math.NaN(), math.Inf(-1)} {
		f.Add(seed(0x10, 1<<40, 1, 0, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		name := string(data[:min(len(data), 32)])
		word := func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		}
		flags := word()
		r := factorgraph.NodeResult{Node: int(int64(word())), Label: int(int64(word()))}
		for len(data) > 0 {
			r.Top = append(r.Top, factorgraph.ClassScore{Class: int(int64(word())), Score: math.Float64frombits(word())})
		}
		checkEncode(t, &r, appendNodeResult)
		resp := ClassifyResponse{
			Count:        r.Label,
			Residual:     flags&1 != 0,
			FellBack:     flags&2 != 0,
			Certified:    flags&4 != 0,
			PushedNodes:  int(int16(flags >> 16)),
			TouchedEdges: int(int16(flags >> 32)),
			ClonedRows:   int(int8(flags >> 48)),
		}
		if flags&8 != 0 {
			resp.Results = []factorgraph.NodeResult{r, {Node: r.Label}}
		}
		if flags&16 != 0 {
			resp.Stages = []StageTiming{{Stage: name, Us: math.Float64frombits(flags)}}
		}
		checkEncode(t, &resp, appendClassifyResponse)
	})
}

// TestClassifyRepliesMatchEncodingJSON: over HTTP, a full-graph top-3 stream
// and a 64-node point reply, identity and gzip, are byte for byte what
// encoding/json renders from eng.Classify's results. The flush points did
// not move, so the compressed bytes equal the parent handler's too (one
// Encode per record into the gzip writer, flushed every 256), and so do the
// stream's record and flush counts.
func TestClassifyRepliesMatchEncodingJSON(t *testing.T) {
	srv, eng := newTestServer(t, 2000, 12000)
	all, err := eng.Classify(factorgraph.Query{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, 64)
	for i := range nodes {
		nodes[i] = (i * 31) % len(all)
	}
	point, err := eng.Classify(factorgraph.Query{Nodes: nodes, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	render := func(stream, gzipped bool) []byte {
		var buf bytes.Buffer
		var w io.Writer = &buf
		var gz *gzip.Writer
		if gzipped {
			gz = gzip.NewWriter(&buf)
			w = gz
		}
		enc := json.NewEncoder(w)
		if stream {
			for i := range all {
				if err := enc.Encode(&all[i]); err != nil {
					t.Fatal(err)
				}
				if gz != nil && (i+1)%defaultFlushEvery == 0 {
					if err := gz.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
		} else if err := enc.Encode(ClassifyResponse{Count: len(point), Results: point, Residual: true}); err != nil {
			t.Fatal(err)
		}
		if gz != nil {
			if err := gz.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	nodesJSON, _ := json.Marshal(nodes)
	for _, stream := range []bool{false, true} {
		body := fmt.Sprintf(`{"nodes":%s,"top_k":3}`, nodesJSON)
		if stream {
			body = `{"top_k":3,"stream":true}`
		}
		for _, gzipped := range []bool{false, true} {
			req := httptest.NewRequest("POST", testPath("classify"), strings.NewReader(body))
			if gzipped {
				req.Header.Set("Accept-Encoding", "gzip")
			}
			records, flushes, slow := mNDJSONRecords.Value(), mNDJSONFlushes.Value(), mNDJSONSlowFlushes.Value()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("stream=%v gzip=%v: status %d: %s", stream, gzipped, rec.Code, rec.Body.String())
			}
			got := rec.Body.Bytes()
			calm := mNDJSONSlowFlushes.Value() == slow // no flush doubled the interval
			if gzipped {
				if calm && !bytes.Equal(got, render(stream, true)) {
					t.Errorf("stream=%v: compressed bytes differ from the parent handler's", stream)
				}
				zr, err := gzip.NewReader(bytes.NewReader(got))
				if err != nil {
					t.Fatal(err)
				}
				if got, err = io.ReadAll(zr); err != nil {
					t.Fatal(err)
				}
			}
			if want := render(stream, false); !bytes.Equal(got, want) {
				t.Errorf("stream=%v gzip=%v: %d bytes differ from encoding/json's %d", stream, gzipped, len(got), len(want))
			}
			if !stream {
				continue
			}
			if d := mNDJSONRecords.Value() - records; d != int64(len(all)) {
				t.Errorf("gzip=%v: records_total moved %d, want %d", gzipped, d, len(all))
			}
			if d := mNDJSONFlushes.Value() - flushes; calm && d != int64(len(all)/defaultFlushEvery) {
				t.Errorf("gzip=%v: flushes_total moved %d, want %d", gzipped, d, len(all)/defaultFlushEvery)
			}
		}
	}
}

// discardWriter is a flushable ResponseWriter that keeps only a line count.
type discardWriter struct {
	header http.Header
	lines  int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Flush()              {}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// TestStreamAllocsDoNotGrowWithRecords: a full-graph top-2 stream through
// ServeHTTP allocates as much for 8 000 records as for 2 000 — a count, not a
// clock. (Rendering through encoding/json with a Top slice per record cost
// at least two allocations a record.)
func TestStreamAllocsDoNotGrowWithRecords(t *testing.T) {
	const runs = 5
	allocs := func(n int) float64 {
		reg := registry.New(registry.Options{})
		if err := reg.RegisterEngine(testGraph, newTestEngine(t, n, 6*n)); err != nil {
			t.Fatal(err)
		}
		srv := NewMulti(reg, Options{TraceSampleRate: -1}) // no sampled trace to store
		defer srv.Close()
		w := &discardWriter{header: http.Header{}}
		stream := func() {
			srv.ServeHTTP(w, httptest.NewRequest("POST", testPath("classify"), strings.NewReader(`{"top_k":2,"stream":true}`)))
		}
		stream() // the cold solve
		a := testing.AllocsPerRun(runs, stream)
		if want := n * (runs + 2); w.lines != want { // AllocsPerRun warms up once
			t.Fatalf("n=%d: %d lines streamed, want %d", n, w.lines, want)
		}
		return a
	}
	small, large := allocs(2000), allocs(8000)
	t.Logf("allocations per stream: %.0f at n=2000, %.0f at n=8000", small, large)
	if large-small > 8 {
		t.Errorf("a stream allocates %.0f at n=2000 and %.0f at n=8000: it grows with the records", small, large)
	}
}

// TestRenderErrorIs500: a reply encoding/json refuses is rendered before the
// header goes out, so the client gets a 500 with an error body.
func TestRenderErrorIs500(t *testing.T) {
	for _, accept := range []string{"", "gzip"} {
		req := httptest.NewRequest("POST", testPath("estimate"), nil)
		req.Header.Set("Accept-Encoding", accept)
		rec := httptest.NewRecorder()
		writeJSONNegotiated(rec, req, http.StatusOK, EstimateResponse{RuntimeMS: math.NaN()})
		var body APIError
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
			t.Errorf("accept %q: status %d, body %q, want a 500 error body", accept, rec.Code, rec.Body.String())
		}
	}
}
