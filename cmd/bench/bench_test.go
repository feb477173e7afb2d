package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileAndTailRule(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN, not a number that looks measured")
	}
	// One rule: p90, with at least ten samples beyond the reported rank.
	if v, err := tailOf(asc); err != nil || v != 90 {
		t.Errorf("tailOf(1..100) = %v, %v; want 90", v, err)
	}
	if _, err := tailOf(asc[:99]); err == nil {
		t.Error("p90 of 99 samples leaves 9 beyond it; the guard must refuse")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, err := tailOf(big); err != nil || v != 900 {
		t.Errorf("tailOf(1..1000) = %v, %v; want 900", v, err)
	}
	// Scaled down to one second, every workload keeps one whole block, and
	// a block of the committed sizes holds enough samples for the rules.
	short := fullSizes.scaled(1)
	for _, l := range []load{short.pipelineMain, short.readPoints, short.mixedPatches, short.mutateBatches} {
		if l.blocks < 1 || l.perBlock < 10*minBeyondTail {
			t.Errorf("a main phase scaled to 1 s is %+v: a block needs %d samples for its p90", l, 10*minBeyondTail)
		}
	}
	for _, n := range []int{short.pipelineSide.perBlock, short.readStreams.perBlock, short.mixedPatches.perBlock / whatIfEvery} {
		if n < minSideSamples {
			t.Errorf("a side phase scaled to 1 s has %d samples per block, want ≥ %d", n, minSideSamples)
		}
	}
}

func TestMetricsComeFromTheQuietestBlock(t *testing.T) {
	// Five blocks of 100 ops whose latencies are 1..100 ms; the fourth block
	// ran ten times slower (a noisy neighbour) and one op of the last failed.
	p := &phase{load: load{5, 100}, ops: [][]timed{make([]timed, 500)}, blockS: []float64{2, 2, 20, 1, 2}}
	for i := range p.ops[0] {
		ms := float64(i%100 + 1)
		if i/100 == 2 {
			ms *= 10
		}
		p.ops[0][i] = timed{ms: ms, ok: i != 499}
	}
	if got := p.bestRate(nil); got != 100 {
		t.Errorf("block rates 50, 50, 5, 100, 49.5 per s: best = %v, want 100", got)
	}
	if got := p.bestRate(func(_, i int) bool { return i%2 == 0 }); got != 50 {
		t.Errorf("every other op kept: best block rate = %v, want 50", got)
	}
	lat := p.latencies(nil)
	if len(lat) != 5 || len(lat[2]) != 100 || len(lat[4]) != 99 {
		t.Fatalf("latencies per block: %d blocks, want 5 of 100, 100, 100, 100, 99: a failed op is not a sample", len(lat))
	}
	if got, err := quietest(lat[:4], p50Of); err != nil || got != 50 {
		t.Errorf("quietest block median = %v, %v; want 50", got, err)
	}
	if got, err := quietest(lat[:4], tailOf); err != nil || got != 90 {
		t.Errorf("quietest block p90 = %v, %v; want 90 (the whole run's would be the slow block's)", got, err)
	}
	if _, err := quietest(lat, tailOf); err == nil {
		t.Error("a block with 99 samples leaves 9 beyond its p90; the guard must refuse")
	}
	if _, err := quietest([][]float64{{1, 2, 3}}, p50Of); err == nil {
		t.Error("a block with 3 samples must not report a median")
	}
	// A real closed loop: two clients, every op in its client's order, in
	// three blocks of four.
	var order [2][]int
	ran := runPhase(load{3, 4}, 2, func(c, i int) bool { order[c] = append(order[c], i); return true }, nil)
	if len(ran.blockS) != 3 || len(order[0]) != 12 || len(order[1]) != 12 || order[1][11] != 11 {
		t.Errorf("2 × 12 ops ran as %d blocks in order %v", len(ran.blockS), order)
	}
	if b := ran.blockOf(ran.starts[1]); b != 1 {
		t.Errorf("blockOf(start of block 2) = %d, want 1", b)
	}
	if b := ran.blockOf(ran.starts[0].Add(-time.Second)); b != -1 {
		t.Errorf("blockOf(before the phase) = %d, want -1", b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: "a", Name: "http", Parent: "", Start: 0, End: 100},
		{Op: "a", Name: "serve", Parent: "http", Start: 0, End: 70},
		{Op: "a", Name: "engine", Parent: "serve", Start: 0, End: 50},
		{Op: "a", Name: "engine.lock_wait", Parent: "engine", Start: 0, End: 5},
		{Op: "a", Name: "residual.flush", Parent: "engine", Start: 5, End: 40},
		// A second op whose inner depth ran longer than its parent, and
		// whose two children overlap: cover is clipped and merged.
		{Op: "b", Name: "http", Parent: "", Start: 1000, End: 1100},
		{Op: "b", Name: "serve", Parent: "http", Start: 1000, End: 1130},
		{Op: "c", Name: "engine", Parent: "", Start: 0, End: 100},
		{Op: "c", Name: "x", Parent: "engine", Start: 10, End: 60},
		{Op: "c", Name: "y", Parent: "engine", Start: 40, End: 80},
	}
	want := []int64{30, 20, 10, 5, 35, 0, 130, 30, 50, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s/%s = %d, want %d", spans[i].Op, spans[i].Name, got[i], want[i])
		}
	}
	// By construction the layers of op a sum to its client-observed latency.
	if sum := got[0] + got[1] + got[2] + got[3] + got[4]; sum != 100 {
		t.Errorf("self times of op a sum to %d, want the http span's 100", sum)
	}
	by := selfByName(spans, "a")
	if len(by["http"]) != 1 || by["http"][0] != 30 {
		t.Errorf("selfByName(a)[http] = %v, want [30]", by["http"])
	}
}

// wireBytes flattens a request list to the bytes the wire depths send.
func wireBytes(reqs []*request) []byte {
	var out []byte
	for _, r := range reqs {
		out = append(out, r.method...)
		out = append(out, ' ')
		out = append(out, r.path...)
		out = append(out, ' ')
		out = append(out, r.traceparent...)
		out = append(out, '\n')
		out = append(out, r.body...)
		out = append(out, '\n')
	}
	return out
}

// mutateList builds mutate_stream's request list the way the workload does.
func mutateList(t *testing.T, seed uint64, d *graphData) []*request {
	t.Helper()
	g := newReqGen(seed, "mutate_stream")
	model := newEdgeModel(d)
	reqs := []*request{g.point(d.spec.n), g.backlog(model)}
	for i := 0; i < 50; i++ {
		reqs = append(reqs, g.mutate(model))
	}
	return append(reqs, g.compact(), g.stream())
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	d, err := generate(smokeSizes.pow, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wireBytes(mutateList(t, 7, d)), wireBytes(mutateList(t, 7, d))
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced two different request lists")
	}
	if bytes.Equal(a, wireBytes(mutateList(t, 8, d))) {
		t.Error("different seeds produced the same request list")
	}
	// Label workloads too, and the model must end where the list leads.
	lists := [2][]byte{}
	for i := range lists {
		g := newReqGen(7, "serve_mixed")
		model := newLabelModel(d, 20)
		var reqs []*request
		for j := 0; j < 20; j++ {
			reqs = append(reqs, g.patch(model), g.whatIf(model))
		}
		lists[i] = wireBytes(reqs)
		labeled := 0
		for u, c := range model.seeds {
			if c != d.seeds[u] {
				labeled++
			}
		}
		if labeled != 20*patchNodes {
			t.Errorf("label model gained %d seeds, want %d", labeled, 20*patchNodes)
		}
	}
	if !bytes.Equal(lists[0], lists[1]) {
		t.Error("the same seed produced two different label request lists")
	}
}

func TestTraceparentIsNeverSampled(t *testing.T) {
	g := newReqGen(1, "x")
	for i := 0; i < 1000; i++ {
		tp := g.unsampledTraceparent()
		// 00-<32 hex trace id>-<16 hex span id>-00; the head sampler reads
		// the trace id's low 8 bytes, whose first hex digit must be ≥ 8.
		if len(tp) != 55 || tp[len(tp)-2:] != "00" || tp[19] < '8' {
			t.Fatalf("traceparent %q could be head-sampled", tp)
		}
	}
}

func TestScanLabels(t *testing.T) {
	body := []byte(`{"count":2,"results":[{"node":7,"label":2,"top":[{"class":2,"score":0.5}]},{"node":8,"label":0}]}`)
	if n, ok := scanLabels(body, 3); n != 2 || !ok {
		t.Errorf("scanLabels = %d, %v; want 2, true", n, ok)
	}
	if _, ok := scanLabels(body, 2); ok {
		t.Error("label 2 must be out of range for k = 2")
	}
}

// TestSmokeWorkloads passes 2 000-node graphs through all four workloads,
// their per-op checks and their final-state checks.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time, and the pipeline ops cost the same on any graph
			r, err := runWorkload(name, smokeSizes, 3)
			if err != nil {
				t.Fatal(err)
			}
			metrics := r.endToEndValues()
			if r.failed != 0 || len(r.problems) != 0 {
				t.Errorf("%d of %d ops failed; problems: %v", r.failed, r.attempted, r.problems)
			}
			for _, d := range endToEnd {
				if v := metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("%s = %+v", d.name, v)
				}
			}
		})
	}
}

// TestSmokeLadder runs the traced ladder small: every declared per-layer
// metric must come out measured, and the written spans must nest.
func TestSmokeLadder(t *testing.T) {
	t.Parallel()
	l, err := runLadder(smokeSizes, 3)
	if err != nil {
		t.Fatal(err)
	}
	metrics := l.values()
	if l.failed != 0 || len(l.problems) != 0 {
		t.Errorf("%d of %d ops failed; problems: %v", l.failed, l.attempted, l.problems)
	}
	if len(metrics) != len(perLayer) {
		t.Errorf("%d per-layer values for %d declared metrics", len(metrics), len(perLayer))
	}
	names := map[string]map[string]bool{}
	for _, s := range l.tr.spans {
		if names[s.Op] == nil {
			names[s.Op] = map[string]bool{}
		}
		names[s.Op][s.Name] = true
	}
	for _, s := range l.tr.spans {
		if s.Parent != "" && !names[s.Op][s.Parent] {
			t.Fatalf("span %s of op %s names parent %q, which the op does not have", s.Name, s.Op, s.Parent)
		}
	}
	path := t.TempDir() + "/trace.json"
	if err := l.tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(b, &back); err != nil || len(back) != len(l.tr.spans) {
		t.Errorf("trace file holds %d spans (err %v), want %d", len(back), err, len(l.tr.spans))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads, in
// step with the tables this package prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != baseSeconds || len(file.Paths) != 1 || file.Paths[0] != "cmd/bench" {
		t.Errorf("run_seconds %d, paths %v; want %d, [cmd/bench]", file.RunSeconds, file.Paths, baseSeconds)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d",
			len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := file.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := file.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}
