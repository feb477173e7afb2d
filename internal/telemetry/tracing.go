package telemetry

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID is a W3C trace-context trace id: 16 bytes, hex-rendered on the
// wire. The all-zero id is invalid per spec and doubles as "no id" here.
type TraceID [16]byte

// SpanID is a W3C trace-context parent/span id: 8 bytes.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[0:8], rand.Uint64())
		binary.BigEndian.PutUint64(id[8:16], rand.Uint64())
	}
	return id
}

// NewSpanID returns a random non-zero span id.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

// ParseTraceID parses 32 hex digits; ok is false for malformed or all-zero
// input.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// ParseSpanID parses 16 hex digits; ok is false for malformed or all-zero
// input.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// Traceparent renders a version-00 W3C traceparent header value.
func Traceparent(tid TraceID, sid SpanID, sampled bool) string {
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], tid[:])
	b[35] = '-'
	hex.Encode(b[36:52], sid[:])
	copy(b[52:], "-00")
	if sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// ParseTraceparent parses a version-00 W3C traceparent header
// (00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>). ok is false for
// anything malformed, unknown versions and uppercase hex included — a bad
// header means "start a fresh trace", never an error.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, sampled, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if h[0] != '0' || h[1] != '0' { // only version 00 is understood
		return TraceID{}, SpanID{}, false, false
	}
	for i := 3; i < len(h); i++ {
		if c := h[i]; 'A' <= c && c <= 'F' { // the spec allows lowercase hex only
			return TraceID{}, SpanID{}, false, false
		}
	}
	tid, tok := ParseTraceID(h[3:35])
	parent, pok := ParseSpanID(h[36:52])
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil || !tok || !pok {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, parent, flags[0]&0x01 != 0, true
}

// Sampler is a deterministic head sampler: a trace id is sampled iff its
// low 8 bytes, read as a uint64, fall under rate×MaxUint64. Deterministic
// on the id so every process in a future multi-shard deployment makes the
// same decision for the same trace without coordination.
type Sampler struct{ threshold uint64 }

// NewSampler builds a sampler keeping the given fraction of traces
// (rate ≤ 0 keeps none, rate ≥ 1 keeps all).
func NewSampler(rate float64) *Sampler {
	switch {
	case rate <= 0:
		return &Sampler{threshold: 0}
	case rate >= 1:
		return &Sampler{threshold: math.MaxUint64}
	}
	return &Sampler{threshold: uint64(rate * math.MaxUint64)}
}

// Sample reports whether the trace id falls inside the kept fraction.
func (s *Sampler) Sample(id TraceID) bool {
	if s.threshold == math.MaxUint64 {
		return true
	}
	return binary.BigEndian.Uint64(id[8:]) < s.threshold
}

// Rate returns the configured sampling fraction.
func (s *Sampler) Rate() float64 {
	return float64(s.threshold) / math.MaxUint64
}

// StoredTrace is one completed, captured request trace as kept by the
// TraceStore and served from GET /v1/admin/traces; one whose Duration
// reaches its Threshold is also a slow-log entry.
type StoredTrace struct {
	ID           TraceID
	Root         SpanID
	RemoteParent SpanID // zero when the trace originated here
	Graph        string
	Kind         string // classify | patch | mutate | ...
	Start        time.Time
	Duration     time.Duration
	Threshold    time.Duration // slow-request threshold in force at capture
	Status       int
	Reason       string // head | parent | slow | error
	Spans        []Span
	Cost         Cost
}

// TraceStore is a bounded in-process ring of captured traces with id
// lookup. Put overwrites the oldest entry once full; the byID index always
// reflects exactly the ring's contents, so an exemplar trace_id resolves
// for as long as the trace it names is retained.
type TraceStore struct {
	mu   sync.Mutex
	ring []StoredTrace
	byID map[TraceID]int
	next int
	n    int
}

// DefaultTraceStoreCapacity bounds the in-process trace ring.
const DefaultTraceStoreCapacity = 256

// NewTraceStore returns a store retaining the most recent capacity traces
// (capacity < 1 uses DefaultTraceStoreCapacity).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = DefaultTraceStoreCapacity
	}
	return &TraceStore{
		ring: make([]StoredTrace, capacity),
		byID: make(map[TraceID]int, capacity),
	}
}

// Put captures a trace, evicting the oldest once the ring is full.
func (s *TraceStore) Put(t StoredTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.ring[s.next]; s.n == len(s.ring) && s.byID[old.ID] == s.next {
		delete(s.byID, old.ID)
	}
	s.ring[s.next] = t
	s.byID[t.ID] = s.next
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// Get returns the stored trace with the given id.
func (s *TraceStore) Get(id TraceID) (StoredTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byID[id]
	if !ok {
		return StoredTrace{}, false
	}
	return s.ring[i], true
}

// Snapshot returns the retained traces, newest first.
func (s *TraceStore) Snapshot() []StoredTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredTrace, 0, s.n)
	for i := 1; i <= s.n; i++ {
		out = append(out, s.ring[(s.next-i+len(s.ring))%len(s.ring)])
	}
	return out
}

// Len returns the number of retained traces.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Capacity returns the ring size.
func (s *TraceStore) Capacity() int { return len(s.ring) }
