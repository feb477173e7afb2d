package factorgraph

import (
	"testing"
	"time"

	"factorgraph/internal/telemetry"
)

// newOverheadEngine builds a small warm engine and a query that stays on
// the hot serving path (engine warm, no propagation per query).
func newOverheadEngine(tb testing.TB) (*Engine, Query) {
	tb.Helper()
	h := SkewedH(3, 8)
	g, truth, err := Generate(GenerateConfig{N: 2000, M: 10000, K: 3, H: h, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	seeds, err := SampleSeeds(truth, 3, 0.05, 5)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		tb.Fatal(err)
	}
	nodes := make([]int, 64)
	for i := range nodes {
		nodes[i] = i * 7 % 2000
	}
	q := Query{Nodes: nodes, TopK: 2}
	// Warm: pay the cold solve so the measured loop is pure serving.
	if err := eng.ClassifyEach(q, func(NodeResult) error { return nil }); err != nil {
		tb.Fatal(err)
	}
	return eng, q
}

// classifyNsPerOp times the warm classify path.
func classifyNsPerOp(eng *Engine, q Query) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eng.ClassifyEach(q, func(NodeResult) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(r.NsPerOp())
}

// gateOverhead gates the instrumentation cost of one hot path at ~2%.
// Shared-runner noise routinely exceeds that, so it first measures the
// telemetry-DISABLED path three times; if the spread exceeds 2% the
// machine cannot resolve the budget and the test skips rather than flake.
// The enabled run must stay within budget + observed noise, with one
// retry: background load arriving between the baseline and the enabled
// measurement shows up as a one-off spike that passes on re-measure,
// while a real instrumentation regression fails both attempts.
func gateOverhead(t *testing.T, measure func() float64) {
	t.Helper()
	defer telemetry.SetEnabled(true)

	telemetry.SetEnabled(false)
	off1, off2, off3 := measure(), measure(), measure()
	base := min(off1, off2, off3)
	noise := (max(off1, off2, off3) - base) / base
	if noise > 0.02 {
		t.Skipf("runner too noisy to gate 2%% (disabled runs differ by %.1f%%)", noise*100)
	}

	telemetry.SetEnabled(true)
	budget := 0.02 + noise
	on := measure()
	if on/base-1 > budget {
		on = measure()
	}
	if overhead := on/base - 1; overhead > budget {
		t.Errorf("telemetry overhead %.2f%% exceeds %.2f%% (off=%.0fns on=%.0fns)",
			overhead*100, budget*100, base, on)
	}
}

// TestTelemetryOverheadClassify gates the warm classify path.
func TestTelemetryOverheadClassify(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test; skipped in -short")
	}
	eng, q := newOverheadEngine(t)
	gateOverhead(t, func() float64 { return classifyNsPerOp(eng, q) })
}

// TestTelemetryOverheadPatch applies the same gate to the label-patch path.
func TestTelemetryOverheadPatch(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test; skipped in -short")
	}
	h := SkewedH(3, 8)
	g, truth, err := Generate(GenerateConfig{N: 2000, M: 10000, K: 3, H: h, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SampleSeeds(truth, 3, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ClassifyEach(Query{Nodes: []int{0}}, func(NodeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	patchNsPerOp := func() float64 {
		i := 0
		r := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := eng.UpdateLabelsMeta(map[int]int{100 + i%500: i % 3}, nil); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		return float64(r.NsPerOp())
	}
	gateOverhead(t, patchNsPerOp)
}

// TestTelemetryOverheadTracingDisabled gates the tracing-disabled request
// end to end: the middleware prologue (traceparent parse + head-sampler
// decision) runs per op, but the sampler keeps nothing and no trace is
// threaded, so classify runs the nil-trace path — every instrumented span
// site pays exactly one nil check. This is the -trace-sample off (negative)
// deployment shape.
func TestTelemetryOverheadTracingDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test; skipped in -short")
	}
	eng, q := newOverheadEngine(t)
	sampler := telemetry.NewSampler(0) // keep nothing: every head decision misses
	header := telemetry.Traceparent(telemetry.NewTraceID(), telemetry.NewSpanID(), false)
	measure := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qq := q
				if tid, parent, ps, ok := telemetry.ParseTraceparent(header); ok && (ps || sampler.Sample(tid)) {
					qq.Trace = telemetry.NewRequestTrace(tid, parent, ps, true)
				}
				if err := eng.ClassifyEach(qq, func(NodeResult) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}
	gateOverhead(t, measure)
}

// TestTelemetryOverheadSamplerMiss gates the sampler-miss request: a live
// unsampled trace rides the query, so every instrumented span site records
// (the spans also feed the slow-query log), but nothing lands in the trace
// store. The disabled baseline gets the nil trace from NewRequestTrace, so
// the gate covers the full marginal cost of carrying an unsampled trace
// through the hot path.
func TestTelemetryOverheadSamplerMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test; skipped in -short")
	}
	eng, q := newOverheadEngine(t)
	measure := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qq := q
				// NewTraceID runs in both states so its cost cancels out of
				// the gate; NewRequestTrace is nil in the disabled baseline.
				qq.Trace = telemetry.NewRequestTrace(telemetry.NewTraceID(), telemetry.SpanID{}, false, false)
				if err := eng.ClassifyEach(qq, func(NodeResult) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}
	gateOverhead(t, measure)
}

// leafSum sums the durations of leaf spans only — spans no other span
// parents onto. Parent spans (engine.classify) contain their children's
// time, so a flat sum would double-count nested trees.
func leafSum(spans []telemetry.Span) time.Duration {
	hasChild := map[telemetry.SpanID]bool{}
	for _, sp := range spans {
		hasChild[sp.Parent] = true
	}
	var sum time.Duration
	for _, sp := range spans {
		if !hasChild[sp.ID] {
			sum += sp.Dur
		}
	}
	return sum
}

// TestDebugTraceConsistency cross-checks the debug stage trace against the
// query meta: the path the meta reports must match the stages recorded, and
// the leaf-span sum must not exceed wall time (parents contain their
// children, so only leaves are additive against the wall clock).
func TestDebugTraceConsistency(t *testing.T) {
	h := SkewedH(3, 8)
	g, truth, err := Generate(GenerateConfig{N: 500, M: 2500, K: 3, H: h, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SampleSeeds(truth, 3, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}

	tr := telemetry.NewTrace()
	wall := time.Now()
	meta, err := eng.ClassifyEachMeta(Query{Nodes: []int{1, 2, 3}, TopK: 2, Trace: tr},
		func(NodeResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(wall)
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no stages recorded")
	}
	byName := map[string]time.Duration{}
	for _, sp := range spans {
		byName[sp.Name] = sp.Dur
	}
	if sum := leafSum(spans); sum > elapsed {
		t.Errorf("leaf-span sum %v exceeds wall time %v", sum, elapsed)
	}
	if _, ok := byName["emit"]; !ok {
		t.Errorf("stages %v missing emit", byName)
	}
	// The incremental engine answers plain queries from the live residual
	// state; the meta agrees with the recorded stage.
	if meta.Residual {
		if _, ok := byName["residual_direct"]; !ok {
			t.Errorf("meta.Residual set but stages are %v", byName)
		}
	}

	// A what-if query routes through the overlay; meta + stages must agree
	// on cache behavior.
	q := Query{Nodes: []int{1}, ExtraSeeds: map[int]int{4: 1}}
	q.Trace = telemetry.NewTrace()
	meta, err = eng.ClassifyEachMeta(q, func(NodeResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range q.Trace.Spans() {
		names[sp.Name] = true
	}
	if meta.Residual && !meta.CacheHit && !names["overlay_flush"] {
		t.Errorf("overlay miss, stages %v missing overlay_flush", names)
	}

	q.Trace = telemetry.NewTrace()
	meta, err = eng.ClassifyEachMeta(q, func(NodeResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	for _, sp := range q.Trace.Spans() {
		names[sp.Name] = true
	}
	if meta.CacheHit && !names["overlay_cached"] {
		t.Errorf("cache hit, stages %v missing overlay_cached", names)
	}
}
