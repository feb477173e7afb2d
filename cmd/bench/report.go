package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one reported metric. bound is the share of the
// parent's median an end-to-end metric may worsen by (0 for per-layer
// metrics, which have none); moves names the end-to-end metric a per-layer
// metric is expected to move, and on which workload.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd is the same seven metrics on every workload. BENCHMARK.json
// carries the same list; TestBenchmarkJSONMatches keeps them in step. The
// bounds are what calibration.json asks for — twice the largest deviation
// or three times the interquartile spread ten runs of one commit showed,
// whichever is more, over the four workloads — under the contract's cap of
// 0.25, where every timing sits: in a calm hour the timings spread 1.5–6.5 %
// of their median, and the host has worse hours.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "main_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "main_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "side_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "accuracy", unit: "ratio", better: "higher", bound: 0.02},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.06},
}

// value is one metric reading in the driver's wire form.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the object printed as the last line of standard output.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEndValues derives the seven metrics from a run: every timing from
// the quietest block of its phase (see phase.go). Too few samples for the
// percentile rules is reported as a problem, not papered over.
func (r *result) endToEndValues() map[string]value {
	mainP50, err := quietest(r.mainMS, p50Of)
	if err != nil {
		r.problem("main op: %v", err)
	}
	mainTail, err := quietest(r.mainMS, tailOf)
	if err != nil {
		r.problem("main op: %v", err)
	}
	sideP50, err := quietest(r.sideMS, p50Of)
	if err != nil {
		r.problem("side op: %v", err)
	}
	r.info["main_samples"] = r.mainOps
	r.info["side_samples"] = r.sideOps
	r.info["main_tail_percentile"] = tailPercentile
	r.info["setup_repetitions"] = len(r.setupS)
	vals := map[string]float64{
		"setup_s":          median(r.setupS),
		"main_p50_ms":      mainP50,
		"main_tail_ms":     mainTail,
		"throughput_per_s": r.throughput,
		"side_p50_ms":      sideP50,
		"accuracy":         r.accuracy,
		"live_heap_mb":     r.liveHeapMB,
	}
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		v := vals[d.name]
		if v != v || v <= 0 { // NaN or zero: a metric that did not measure
			r.problem("%s = %v", d.name, v)
			v = 0
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}

// hostHeader describes the machine and runtime every result is stamped with.
func hostHeader() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// measuredWindow is the band, as multiples of the requested seconds, inside
// which a measured phase counts as sized for its host.
var measuredWindow = [2]float64{0.6, 1.6}

// infoPrefix marks the machine-readable header line of a run; the
// calibration mode reads it back from its subprocesses.
const infoPrefix = "#info "

// printRun writes the human-readable report of one run, then the header as
// one JSON line, then — last — the driver's result object.
func printRun(w io.Writer, title string, seconds int, info map[string]any, defs []metricDef, metrics map[string]value, t *tally) error {
	for k, v := range hostHeader() {
		info[k] = v
	}
	fmt.Fprintf(w, "# %s\n", title)
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "#   %-26s %v\n", k, info[k])
	}
	if m, ok := info["measured_seconds"].(float64); ok {
		if lo, hi := measuredWindow[0]*float64(seconds), measuredWindow[1]*float64(seconds); m < lo || m > hi {
			fmt.Fprintf(w, "# WARNING: measured phase took %.1f s, outside %.0f–%.0f s: the op counts are not sized for this host\n", m, lo, hi)
		}
	}
	fmt.Fprintf(w, "%-34s %16s  %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound / moves")
	for _, d := range defs {
		note := d.moves
		if d.bound > 0 {
			note = fmt.Sprintf("%.0f %%", d.bound*100)
		}
		fmt.Fprintf(w, "%-34s %16.6g  %-6s %-7s %s\n", d.name, metrics[d.name].Value, d.unit, d.better, note)
	}
	fmt.Fprintf(w, "attempted %d  succeeded %d  failed %d\n", t.attempted, t.attempted-t.failed, t.failed)
	for _, p := range t.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
	hdr, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", infoPrefix, hdr)
	line, err := json.Marshal(output{
		Correct:   t.failed == 0 && len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
