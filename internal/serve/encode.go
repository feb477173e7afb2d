package serve

import (
	"encoding/json"
	"math"
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
// refuses too — an appender returns b as it received it.

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
// written e-7, not e-07. NaN and ±Inf are not JSON.
func appendFloat(b []byte, f float64) ([]byte, error) {
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
