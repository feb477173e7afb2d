package telemetry

import (
	"context"
	"sync"
	"time"
)

// Trace is a lightweight per-request span recorder. The HTTP layer creates
// one per request (when tracing is on), threads it through context and the
// engine Query, and — when the request is sampled or force-captured — the
// recorded span tree lands in the TraceStore behind /v1/admin/traces.
// Spans carry SpanID/parent links: Start maintains a cursor stack
// of open spans so instrumented layers nest naturally. A nil *Trace is
// fully inert — every method is a no-op that reads no clock — so
// instrumented code calls unconditionally and untraced requests pay
// nothing.
type Trace struct {
	t0            time.Time
	tid           TraceID
	root          SpanID
	remoteParent  SpanID // parent span from an inbound traceparent (zero if none)
	remoteSampled bool   // inbound traceparent sampled flag
	sampled       bool   // head-sampler (or parent) decision for this trace

	mu    sync.Mutex
	spans []Span
	stack []SpanID // open-span cursor; empty means "under the root span"
	// Inline backing for spans and stack: a request's few spans record
	// without growing either slice.
	spanBuf  [traceInline]Span
	stackBuf [traceInline]SpanID

	// Per-request work attribution, rolled up into fg_graph_cost_* by the
	// serving layer.
	pushes, edges, rows int64
	flushSec, lockSec   float64
}

// traceInline is how many spans (and open spans) a trace records before
// its slices leave the inline arrays: a traced classify or patch records
// at most this many.
const traceInline = 6

// Span is one recorded stage: its name, id, parent link, start offset from
// the trace origin and duration.
type Span struct {
	Name   string
	ID     SpanID
	Parent SpanID
	Start  time.Duration
	Dur    time.Duration
}

// Cost is the per-request work attribution accumulated on a trace.
type Cost struct {
	Pushes          int64
	EdgesTraversed  int64
	RowsCloned      int64
	FlushSeconds    float64
	LockWaitSeconds float64
}

// NewTrace starts a standalone trace anchored at now with a fresh trace
// id. Used by the debug=1 stage-breakdown path and tests; unlike
// NewRequestTrace it is not gated on Enabled.
func NewTrace() *Trace {
	return newTrace(NewTraceID(), SpanID{}, false, true)
}

// NewRequestTrace starts the per-request trace for an inbound HTTP request:
// tid is the trace id (extracted from traceparent or freshly generated),
// remoteParent the inbound parent span id (zero when the trace originates
// here), remoteSampled the inbound sampled flag, and sampled the local head
// decision. Returns nil — the fully inert trace — when telemetry is
// disabled, so the disabled path pays not even a clock read.
func NewRequestTrace(tid TraceID, remoteParent SpanID, remoteSampled, sampled bool) *Trace {
	if !enabledFlag.Load() {
		return nil
	}
	return newTrace(tid, remoteParent, remoteSampled, sampled)
}

func newTrace(tid TraceID, remoteParent SpanID, remoteSampled, sampled bool) *Trace {
	t := &Trace{
		t0:            time.Now(),
		tid:           tid,
		root:          NewSpanID(),
		remoteParent:  remoteParent,
		remoteSampled: remoteSampled,
		sampled:       sampled,
	}
	t.spans, t.stack = t.spanBuf[:0], t.stackBuf[:0]
	return t
}

// TraceID returns the trace id (zero on nil).
func (t *Trace) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.tid
}

// RootSpanID returns the id of the implicit request root span (zero on
// nil). Spans recorded while no explicit span is open parent onto it.
func (t *Trace) RootSpanID() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.root
}

// RemoteParent returns the inbound traceparent's span id (zero when the
// trace originated in this process, or on nil).
func (t *Trace) RemoteParent() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.remoteParent
}

// RemoteSampled reports the inbound traceparent's sampled flag.
func (t *Trace) RemoteSampled() bool { return t != nil && t.remoteSampled }

// Sampled reports the head-sampling decision for this trace.
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// StartTime returns the trace origin (zero on nil).
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.t0
}

// OpenSpan is a span Start opened and End or EndAs closes. It is a value,
// so opening and closing a span allocates nothing; the zero OpenSpan (what
// a nil trace opens) is inert.
type OpenSpan struct {
	t          *Trace
	name       string
	id, parent SpanID
	start      time.Time
}

// Start opens a span named name; close it with End when the stage ends.
// Spans opened while another is open become its children. A stage whose
// name depends on what happens inside it opens with any name and closes
// with EndAs. Safe on a nil trace.
func (t *Trace) Start(name string) OpenSpan {
	if t == nil {
		return OpenSpan{}
	}
	sp := OpenSpan{t: t, name: name, id: NewSpanID(), start: time.Now()}
	t.mu.Lock()
	sp.parent = t.cursorLocked()
	t.stack = append(t.stack, sp.id)
	t.mu.Unlock()
	return sp
}

// End closes the span under the name it was opened with.
func (sp OpenSpan) End() { sp.EndAs(sp.name) }

// EndAs closes the span under name. An empty name discards it (the cursor
// pops, nothing is recorded): the stage turned out not to happen.
func (sp OpenSpan) EndAs(name string) {
	t := sp.t
	if t == nil {
		return
	}
	d := time.Since(sp.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.popLocked(sp.id)
	if name != "" {
		t.spans = append(t.spans, Span{Name: name, ID: sp.id, Parent: sp.parent, Start: sp.start.Sub(t.t0), Dur: d})
	}
}

// cursorLocked returns the id new spans should parent onto: the innermost
// open span, or the root when none is open. Caller holds t.mu.
func (t *Trace) cursorLocked() SpanID {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return t.root
}

// popLocked removes id from the open-span stack, searching from the top:
// the common case is a perfectly nested close (id IS the top), but an
// out-of-order close must not orphan the cursor. Caller holds t.mu.
func (t *Trace) popLocked(id SpanID) {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			return
		}
	}
}

// AddWork accumulates propagation work counts onto the trace's cost
// attribution. Safe on a nil trace.
func (t *Trace) AddWork(pushes, edges, rows int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pushes += int64(pushes)
	t.edges += int64(edges)
	t.rows += int64(rows)
	t.mu.Unlock()
}

// AddWait accumulates flush and lock-wait time (seconds) onto the trace's
// cost attribution. Safe on a nil trace.
func (t *Trace) AddWait(flushSeconds, lockWaitSeconds float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flushSec += flushSeconds
	t.lockSec += lockWaitSeconds
	t.mu.Unlock()
}

// Cost returns the accumulated work attribution (zero on nil).
func (t *Trace) Cost() Cost {
	if t == nil {
		return Cost{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Cost{
		Pushes:          t.pushes,
		EdgesTraversed:  t.edges,
		RowsCloned:      t.rows,
		FlushSeconds:    t.flushSec,
		LockWaitSeconds: t.lockSec,
	}
}

// Spans returns a copy of the recorded spans (nil on a nil trace).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Total returns the elapsed time since the trace began (0 on nil).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

type traceKey struct{}

// WithTrace attaches a trace to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to the context, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
