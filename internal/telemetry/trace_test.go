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
	end.End()
	tr.Start("stage_b").End()

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
	tr.Start("x").End()
	tr.Start("").EndAs("y")
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

// TestTraceSpansStayInline checks that a request trace records six nested
// spans, opened and closed in order, without growing its span or open-span
// slices out of their inline arrays.
func TestTraceSpansStayInline(t *testing.T) {
	tr := NewRequestTrace(NewTraceID(), SpanID{}, false, false)
	if tr == nil {
		t.Fatal("telemetry disabled")
	}
	var open []OpenSpan
	for i := 0; i < traceInline; i++ {
		open = append(open, tr.Start("span"))
		if &tr.stack[:1][0] != &tr.stackBuf[0] {
			t.Fatalf("open-span stack left its inline array at depth %d", i+1)
		}
	}
	for i := len(open) - 1; i >= 0; i-- {
		open[i].End()
	}
	if len(tr.spans) != traceInline || &tr.spans[0] != &tr.spanBuf[0] || len(tr.stack) != 0 {
		t.Fatalf("after %d nested spans: %d spans, inline %v, %d still open",
			traceInline, len(tr.spans), &tr.spans[0] == &tr.spanBuf[0], len(tr.stack))
	}
	for i, sp := range tr.Spans()[:traceInline-1] { // closed innermost first
		if sp.Parent != tr.Spans()[i+1].ID {
			t.Errorf("span %d's parent is not its enclosing span", i)
		}
	}
}
