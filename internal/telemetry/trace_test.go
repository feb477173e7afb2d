package telemetry

import (
	"context"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	end := tr.Start("stage_a")
	time.Sleep(time.Millisecond)
	end()
	tr.Start("stage_b")()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "stage_a" || spans[0].Dur < time.Millisecond {
		t.Errorf("stage_a span = %+v", spans[0])
	}
	if spans[1].Name != "stage_b" || spans[1].Start < spans[0].Start+spans[0].Dur {
		t.Errorf("stage_b span = %+v, want it to start after stage_a ends", spans[1])
	}
	if tr.Total() <= 0 {
		t.Error("Total() should be positive")
	}
}

// TestNilTrace pins the nil-safety contract instrumented code relies on:
// every method on a nil *Trace is an inert no-op.
func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.Start("x")()
	tr.StartSpan()("y")
	if tr.Spans() != nil {
		t.Error("nil trace Spans() should be nil")
	}
	if tr.Total() != 0 {
		t.Error("nil trace Total() should be 0")
	}
}

func TestTraceContext(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Error("empty context should carry no trace")
	}
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("trace did not round-trip through context")
	}
}
