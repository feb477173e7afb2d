package telemetry

import (
	"math"
	"strings"
	"testing"
)

// TestParseTextTotalsEscapedLabels is the escaping golden test: label
// values holding every escapable character (backslash, double quote,
// newline — including an escaped closing brace inside quotes) go through
// the exporter's own escaping and must come back out of ParseTextTotals
// with the right totals. The old last-space parser mis-split these lines.
func TestParseTextTotalsEscapedLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_ops_total", "ops", Labels{"path": `C:\tmp\"x"`}).Add(3)
	r.Counter("esc_ops_total", "ops", Labels{"path": "line1\nline2"}).Add(4)
	r.Counter("esc_ops_total", "ops", Labels{"path": `a} b`}).Add(5) // '}' inside quotes
	r.Gauge("esc_level", "level", Labels{"q": `say "hi"`}).Set(2.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	// The exposition itself must carry the escapes, not the raw bytes.
	for _, want := range []string{`C:\\tmp\\\"x\"`, `line1\nline2`} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing escaped form %q:\n%s", want, text)
		}
	}
	totals, err := ParseTextTotals(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := totals["esc_ops_total"]; got != 12 {
		t.Errorf("esc_ops_total = %v, want 12 (summed across escaped-label series)", got)
	}
	if got := totals["esc_level"]; got != 2.5 {
		t.Errorf("esc_level = %v, want 2.5", got)
	}
}

// TestParseTextTotalsExemplars checks that OpenMetrics-style exemplar
// suffixes on histogram bucket lines (" # {trace_id=\"...\"} v ts") are cut
// before the value is read, against the exporter's own rendering.
func TestParseTextTotalsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_dur_seconds", "dur", []float64{0.1, 1})
	h.ObserveExemplar(0.05, strings.Repeat("ab", 16))
	h.ObserveExemplar(0.5, strings.Repeat("cd", 16))
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `# {trace_id="`+strings.Repeat("ab", 16)+`"} 0.05`) {
		t.Fatalf("exposition missing exemplar suffix:\n%s", text)
	}
	totals, err := ParseTextTotals(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := totals["ex_dur_seconds_count"]; got != 3 {
		t.Errorf("ex_dur_seconds_count = %v, want 3", got)
	}
	if got := totals["ex_dur_seconds_sum"]; math.Abs(got-2.55) > 1e-12 {
		t.Errorf("ex_dur_seconds_sum = %v, want 2.55", got)
	}
	// Buckets sum too: le="0.1" (1) + le="1" (2) + le="+Inf" (3).
	if got := totals["ex_dur_seconds_bucket"]; got != 6 {
		t.Errorf("ex_dur_seconds_bucket = %v, want 6 (cumulative buckets summed)", got)
	}
}

// TestParseTextTotalsUnterminatedBrace pins the malformed-input behavior:
// a line whose label block never closes is skipped, not mis-parsed, and
// the rest of the scrape still lands.
func TestParseTextTotalsUnterminatedBrace(t *testing.T) {
	text := "bad_total{x=\"oops 1\nok_total 2\n"
	totals, err := ParseTextTotals(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := totals["bad_total"]; ok {
		t.Error("unterminated label block was parsed as a sample")
	}
	if got := totals["ok_total"]; got != 2 {
		t.Errorf("ok_total = %v, want 2", got)
	}
}

// FuzzParseTextTotals checks the scrape parser on two fronts: arbitrary
// input never panics, and a counter family whose label value is fuzzed —
// quotes, backslashes, newlines, braces, '#' and all — parses back from
// the exporter's own rendering to its exact total.
func FuzzParseTextTotals(f *testing.F) {
	f.Add("ok_total 2\n", `C:\tmp\"x"`, uint32(3))
	f.Add("bad_total{x=\"oops 1\n", "line1\nline2", uint32(4))
	f.Add(`h_bucket{le="1"} 3 # {trace_id="ab"} 0.5 1`, `a} b # c {`, uint32(5))
	f.Add("{\"\\", `\`, uint32(0))
	f.Fuzz(func(t *testing.T, raw, label string, n uint32) {
		_, _ = ParseTextTotals(strings.NewReader(raw)) // must not panic

		if len(label) > 256<<10 {
			// Escaping at most doubles the label, which keeps the line
			// under ParseTextTotals' 1 MiB line cap.
			t.Skip("label too long for one exposition line")
		}
		r := NewRegistry()
		r.Counter("fz_total", "fuzzed", Labels{"v": label}).Add(int64(n))
		r.Counter("fz_total", "fuzzed", Labels{"v": label + "#"}).Add(1)
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		totals, err := ParseTextTotals(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := totals["fz_total"], float64(n)+1; got != want {
			t.Fatalf("fz_total = %v, want %v from:\n%s", got, want, b.String())
		}
	})
}
