package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	"factorgraph"
)

// The classify routes render their replies with the appenders below instead
// of encoding/json's reflection: the bytes are exactly what
// json.NewEncoder(w).Encode(v) writes, minus its trailing newline, which the
// caller appends (TestEncodeMatchesEncodingJSON and FuzzClassifyEncode hold
// the two side by side). On error — a non-finite score, which encoding/json
// refuses too — an appender returns b as it received it. Scores are
// rendered by appendFloat, whose fixed-point range goes through
// appendShortestF in float.go (FuzzAppendFloat holds it to strconv).
//
// The classify body comes in through decodeClassify, the decode-side twin:
// a hand parser for the canonical grammar every client sends, which hands
// anything else to decodeBody's encoding/json decoder over the same bytes
// (FuzzClassifyDecode holds the two side by side).

// streamChunk is how many bytes of NDJSON records a stream buffers before it
// writes them out between flush boundaries; at the default cadence a batch
// of 256 top-2 records (~29 KB) stays under it and goes out in one write.
const streamChunk = 32 << 10

// maxPooledBuf keeps buffers a large non-stream reply grew out of the pool.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, streamChunk)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// appendFloat is encoding/json's float64 rule: shortest round-trip digits in
// 'f' form, 'e' form outside [1e-6, 1e21) with a one-digit negative exponent
// written e-7, not e-07. NaN and ±Inf are not JSON. Normal doubles of the
// 'f' range take appendShortestF; the rest take strconv.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if b, ok := appendShortestF(b, f); ok {
		return b, nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendNodeResult appends r as one JSON object: one NDJSON record without
// its newline, or one element of a reply's "results".
func appendNodeResult(b []byte, r *factorgraph.NodeResult) ([]byte, error) {
	start := len(b)
	b = append(b, `{"node":`...)
	b = strconv.AppendInt(b, int64(r.Node), 10)
	b = append(b, `,"label":`...)
	b = strconv.AppendInt(b, int64(r.Label), 10)
	if len(r.Top) > 0 {
		b = append(b, `,"top":[`...)
		for i, cs := range r.Top {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"class":`...)
			b = strconv.AppendInt(b, int64(cs.Class), 10)
			b = append(b, `,"score":`...)
			var err error
			if b, err = appendFloat(b, cs.Score); err != nil {
				return b[:start], err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendClassifyResponse appends the non-streaming classify reply, omitempty
// fields and the debug stages included.
func appendClassifyResponse(b []byte, resp *ClassifyResponse) ([]byte, error) {
	start := len(b)
	var err error
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(resp.Count), 10)
	b = append(b, `,"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendNodeResult(b, &resp.Results[i]); err != nil {
				return b[:start], err
			}
		}
		b = append(b, ']')
	}
	if resp.Residual {
		b = append(b, `,"residual":true`...)
	}
	b = appendNonZero(b, `,"pushed_nodes":`, resp.PushedNodes)
	b = appendNonZero(b, `,"touched_edges":`, resp.TouchedEdges)
	b = appendNonZero(b, `,"cloned_rows":`, resp.ClonedRows)
	if resp.FellBack {
		b = append(b, `,"fell_back":true`...)
	}
	if resp.Certified {
		b = append(b, `,"certified":true`...)
	}
	if len(resp.Stages) > 0 {
		b = append(b, `,"stages":[`...)
		for i, st := range resp.Stages {
			if i > 0 {
				b = append(b, ',')
			}
			// Debug-only: json.Marshal keeps the string escaping
			// encoding/json's by construction.
			name, _ := json.Marshal(st.Stage) // a string always marshals
			b = append(b, `{"stage":`...)
			b = append(b, name...)
			b = append(b, `,"us":`...)
			if b, err = appendFloat(b, st.Us); err != nil {
				return b[:start], err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendNonZero appends an omitempty int field: key (with its leading comma
// and colon) and v, or nothing when v is 0.
func appendNonZero(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// decodeClassify is decodeBody for the classify body, without reflection
// on the common path. The body is read once, bounded by maxBodyBytes, into
// a pooled buffer and parsed by hand when it fits this grammar: JSON
// whitespace, one object whose byte-exact keys nodes, top_k, extra_seeds
// and stream each appear at most once, integers -?(0|[1-9][0-9]{0,17}),
// true/false, null for nodes and extra_seeds, and extra_seeds keys of
// unescaped ASCII. Anything else — escapes, case-folded or repeated keys,
// fractions, exponents, overflow, trailing bytes, a read error — is decoded
// from the same bytes by encoding/json, whose accept/reject and error text
// it therefore keeps. "nodes":[] decodes to an empty non-nil slice, null or
// an absent key to nil (every node), as encoding/json does.
func decodeClassify(w http.ResponseWriter, r *http.Request, req *ClassifyRequest) bool {
	buf := getBuf()
	defer putBuf(buf)
	bb := bytes.NewBuffer(*buf)
	_, err := bb.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	*buf = bb.Bytes()
	if err == nil && parseClassify(*buf, req) {
		return true
	}
	*req = ClassifyRequest{}
	var src io.Reader = bytes.NewReader(*buf)
	if err != nil {
		src = io.MultiReader(src, errReader{err}) // the decoder meets the error where the old stream did
	}
	return decodeJSON(w, src, req)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseClassify parses b into req by decodeClassify's grammar. false means
// "outside the grammar", not "invalid JSON": req may then be partly set.
func parseClassify(b []byte, req *ClassifyRequest) bool {
	p := scanner{b: b}
	if p.end() {
		return true // empty or whitespace-only: the zero request, as decodeBody
	}
	var seen uint8
	return p.seq('{', '}', func() bool {
		key, ok := p.str()
		if !ok || !p.byte(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "nodes":
			bit = 1
			if ok = p.lit("null"); !ok {
				// Sized by the commas before the first ']': one allocation,
				// and non-nil even for [].
				n := max(bytes.IndexByte(b[p.i:], ']'), 0)
				req.Nodes = make([]int, 0, bytes.Count(b[p.i:p.i+n], []byte{','})+1)
				ok = p.seq('[', ']', func() bool {
					v, ok := p.int()
					req.Nodes = append(req.Nodes, v)
					return ok
				})
			}
		case "top_k":
			bit = 2
			req.TopK, ok = p.int()
		case "extra_seeds":
			bit = 4
			if ok = p.lit("null"); !ok {
				req.ExtraSeeds = make(map[string]int)
				ok = p.seq('{', '}', func() bool {
					node, ok := p.str()
					if ok = ok && p.byte(':'); ok {
						req.ExtraSeeds[string(node)], ok = p.int()
					}
					return ok
				})
			}
		case "stream":
			bit, req.Stream = 8, p.lit("true")
			ok = req.Stream || p.lit("false")
		}
		ok = ok && bit != 0 && seen&bit == 0
		seen |= bit
		return ok
	}) && p.end()
}

// scanner walks a JSON body; every token method skips leading whitespace.
type scanner struct {
	b []byte
	i int
}

// end skips whitespace and reports whether the body is used up.
func (p *scanner) end() bool {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
	return p.i == len(p.b)
}

func (p *scanner) byte(c byte) bool {
	if !p.end() && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *scanner) lit(s string) bool {
	if !p.end() && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// seq scans open, elements separated by commas, and close.
func (p *scanner) seq(open, close byte, elem func() bool) bool {
	if !p.byte(open) {
		return false
	}
	if p.byte(close) {
		return true
	}
	for elem() {
		if p.byte(close) {
			return true
		}
		if !p.byte(',') {
			return false
		}
	}
	return false
}

// str scans a string of printable ASCII without escapes, quotes excluded.
func (p *scanner) str() ([]byte, bool) {
	if !p.byte('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b) && p.b[j] >= 0x20 && p.b[j] != '\\' && p.b[j] < 0x80; j++ {
		if p.b[j] == '"' {
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		}
	}
	return nil, false
}

// int scans -?(0|[1-9][0-9]{0,17}): at most 18 digits, so no overflow.
func (p *scanner) int() (int, bool) {
	neg := p.byte('-')
	i, v := p.i, 0
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		v = v*10 + int(p.b[p.i]-'0')
	}
	if n := p.i - i; n == 0 || n > 18 || (n > 1 && p.b[i] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}
