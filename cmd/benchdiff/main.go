// Command benchdiff compares benchmark artifacts between two runs and
// fails when the new one regresses: CI runs it against the previous
// commit's artifacts so a performance regression breaks the build instead
// of sliding by unnoticed. Four artifact pairs are understood:
//
//   - loadgen serve reports (BENCH_serve.json): the gate is the classify
//     p95 (and the patch p95 when both reports carry one) — new_p95 must
//     not exceed old_p95 × (1 + max-regress). QPS is reported for context
//     but not gated: it conflates client and server effects on shared CI
//     runners.
//
//   - residual-path reports (BENCH_residual.json, emitted by
//     TestResidualPatchQuerySpeedup under BENCH_RESIDUAL_OUT): the gate is
//     the WORK RATIO — edges the o(Δ) patch touched over edges a full
//     propagation scans. It is deterministic, so the gate cannot flake on
//     a noisy runner; the wall-clock speedup is reported for context only.
//
//   - mutation-workload reports (BENCH_mutate.json, emitted by loadgen
//     -mutate-frac): the gate is the PATCH /edges mutation p95 —
//     new_p95 must not exceed old_p95 × (1 + max-regress) — so a
//     regression in the streaming-mutation hot path (delta overlay,
//     residual repropagation, compaction) breaks the build.
//
//   - re-estimation reports (BENCH_reestimate.json, emitted by
//     TestReestimateSpeedArtifact under BENCH_REESTIMATE_OUT): the gate is
//     STRUCTURAL -- a Reestimate on a dirty delta overlay must have forced
//     zero compactions and zero summary rebuilds (the o(Δ) sketch-update
//     claim), which is deterministic. The wall-clock speedup over a cold
//     estimate is reported for context only.
//
//     benchdiff -old baseline/BENCH_serve.json -new BENCH_serve.json
//     benchdiff -old prev.json -new cur.json -max-regress 0.25 \
//     -old-residual baseline/BENCH_residual.json -new-residual BENCH_residual.json \
//     -old-mutate baseline/BENCH_mutate.json -new-mutate BENCH_mutate.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

// benchReport is the subset of the loadgen report the diff reads.
type benchReport struct {
	QPS       float64 `json:"qps"`
	LatencyMS struct {
		P95    float64 `json:"p95"`
		Sample int     `json:"samples"`
	} `json:"latency_ms"`
	PatchLatencyMS *struct {
		P95    float64 `json:"p95"`
		Sample int     `json:"samples"`
	} `json:"patch_latency_ms"`
}

// residualReport is the subset of the residual-path artifact the diff reads.
type residualReport struct {
	WorkRatio float64 `json:"work_ratio"`
	Speedup   float64 `json:"speedup"`
}

// reestimateReport is the o(Δ) re-estimation artifact: structural counters
// proving the sketch path ran (no compaction, no summary rebuild), plus
// context-only timings.
type reestimateReport struct {
	Mutations            int     `json:"mutations"`
	SketchUpdates        int64   `json:"sketch_updates"`
	CompactionsDuring    int64   `json:"compactions_during"`
	SummarizationsDuring int64   `json:"summarizations_during"`
	ReestimateMS         float64 `json:"reestimate_ms"`
	ColdEstimateMS       float64 `json:"cold_estimate_ms"`
	Speedup              float64 `json:"speedup"`
}

// mutateReport is the subset of the mutation-workload artifact the diff
// reads: the loadgen report's mutation latency percentiles.
type mutateReport struct {
	QPS             float64 `json:"qps"`
	MutateLatencyMS *struct {
		P95    float64 `json:"p95"`
		Sample int     `json:"samples"`
	} `json:"mutate_latency_ms"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	oldPath := flag.String("old", "", "baseline report (previous commit's BENCH_serve.json)")
	newPath := flag.String("new", "BENCH_serve.json", "fresh report")
	oldResidual := flag.String("old-residual", "", "baseline residual-path report (BENCH_residual.json)")
	newResidual := flag.String("new-residual", "", "fresh residual-path report")
	oldMutate := flag.String("old-mutate", "", "baseline mutation-workload report (BENCH_mutate.json)")
	newMutate := flag.String("new-mutate", "", "fresh mutation-workload report")
	oldReest := flag.String("old-reestimate", "", "baseline re-estimation report (BENCH_reestimate.json); context only")
	newReest := flag.String("new-reestimate", "", "fresh re-estimation report")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated p95/work-ratio growth (0.25 = +25%)")
	allowMissing := flag.Bool("allow-missing-old", false, "exit 0 for comparisons whose baseline file does not exist (first run)")
	flag.Parse()

	if *oldPath == "" {
		return errors.New("-old is required")
	}
	var failures []error
	oldRep, err := load[benchReport](*oldPath)
	switch {
	case err == nil:
		newRep, err := load[benchReport](*newPath)
		if err != nil {
			return err
		}
		if err := compare(oldRep, newRep, *maxRegress, os.Stdout); err != nil {
			failures = append(failures, err)
		}
	case *allowMissing && errors.Is(err, os.ErrNotExist):
		fmt.Printf("benchdiff: no baseline at %s; nothing to compare\n", *oldPath)
	default:
		return err
	}
	if *newResidual != "" {
		if *oldResidual == "" {
			return errors.New("-new-residual requires -old-residual")
		}
		oldRes, err := load[residualReport](*oldResidual)
		switch {
		case err == nil:
			newRes, err := load[residualReport](*newResidual)
			if err != nil {
				return err
			}
			if err := compareResidual(oldRes, newRes, *maxRegress, os.Stdout); err != nil {
				failures = append(failures, err)
			}
		case *allowMissing && errors.Is(err, os.ErrNotExist):
			fmt.Printf("benchdiff: no residual baseline at %s; nothing to compare\n", *oldResidual)
		default:
			return err
		}
	}
	if *newMutate != "" {
		if *oldMutate == "" {
			return errors.New("-new-mutate requires -old-mutate")
		}
		oldMut, err := load[mutateReport](*oldMutate)
		switch {
		case err == nil:
			newMut, err := load[mutateReport](*newMutate)
			if err != nil {
				return err
			}
			if err := compareMutate(oldMut, newMut, *maxRegress, os.Stdout); err != nil {
				failures = append(failures, err)
			}
		case *allowMissing && errors.Is(err, os.ErrNotExist):
			fmt.Printf("benchdiff: no mutation baseline at %s; nothing to compare\n", *oldMutate)
		default:
			return err
		}
	}
	if *newReest != "" {
		newRep, err := load[reestimateReport](*newReest)
		if err != nil {
			return err
		}
		var oldRep *reestimateReport
		if *oldReest != "" {
			oldRep, err = load[reestimateReport](*oldReest)
			switch {
			case err == nil:
			case *allowMissing && errors.Is(err, os.ErrNotExist):
				fmt.Printf("benchdiff: no re-estimation baseline at %s; gating structure only\n", *oldReest)
				oldRep = nil
			default:
				return err
			}
		}
		if err := compareReestimate(oldRep, newRep, os.Stdout); err != nil {
			failures = append(failures, err)
		}
	}
	if len(failures) > 0 {
		return errors.Join(failures...)
	}
	return nil
}

// compareReestimate gates the o(Δ) re-estimation claim structurally: a
// Reestimate over a dirty overlay must not have compacted the topology or
// rebuilt the neighborhood summaries -- both counters are deterministic, so
// the gate cannot flake. Timings are printed for context only (they measure
// the runner); the baseline, when present, is shown for trend reading.
func compareReestimate(oldRep, newRep *reestimateReport, w *os.File) error {
	if oldRep != nil {
		fmt.Fprintf(w, "reestimate: %.3fms → %.3fms over %d→%d mutations (context only, speedup %.1fx → %.1fx)\n",
			oldRep.ReestimateMS, newRep.ReestimateMS, oldRep.Mutations, newRep.Mutations,
			oldRep.Speedup, newRep.Speedup)
	} else {
		fmt.Fprintf(w, "reestimate: %.3fms over %d mutations (cold estimate %.3fms, speedup %.1fx; context only)\n",
			newRep.ReestimateMS, newRep.Mutations, newRep.ColdEstimateMS, newRep.Speedup)
	}
	fmt.Fprintf(w, "reestimate structure: %d sketch updates, %d compactions, %d summary rebuilds during mutation+reestimate\n",
		newRep.SketchUpdates, newRep.CompactionsDuring, newRep.SummarizationsDuring)
	if newRep.CompactionsDuring != 0 {
		return fmt.Errorf("reestimate forced %d compaction(s): the o(Δ) path fell back to merging the overlay", newRep.CompactionsDuring)
	}
	if newRep.SummarizationsDuring != 0 {
		return fmt.Errorf("reestimate rebuilt summaries %d time(s): the incremental sketch cache was dropped", newRep.SummarizationsDuring)
	}
	if newRep.Mutations > 0 && newRep.SketchUpdates == 0 {
		return errors.New("reestimate applied no sketch updates despite mutations: the incremental path never ran")
	}
	fmt.Fprintln(w, "benchdiff: o(Δ) re-estimation structure intact")
	return nil
}

// compareMutate gates the streaming-mutation p95 like compare gates the
// classify/patch p95s. A report without mutation latencies (mutate-frac
// was 0) cannot be gated and fails loudly rather than silently passing.
func compareMutate(oldRep, newRep *mutateReport, maxRegress float64, w *os.File) error {
	if oldRep.MutateLatencyMS == nil || newRep.MutateLatencyMS == nil {
		return errors.New("mutation report carries no mutate_latency_ms (was loadgen run with -mutate-frac > 0?)")
	}
	oldP95, newP95 := oldRep.MutateLatencyMS.P95, newRep.MutateLatencyMS.P95
	fmt.Fprintf(w, "mutate p95: %.3fms → %.3fms (%+.1f%%, limit +%.0f%%)\n",
		oldP95, newP95, pct(oldP95, newP95), maxRegress*100)
	if oldP95 > 0 && newP95 > oldP95*(1+maxRegress) {
		return fmt.Errorf("mutate p95 regressed %.3fms → %.3fms (>%.0f%%): the streaming-mutation hot path slowed down",
			oldP95, newP95, maxRegress*100)
	}
	fmt.Fprintln(w, "benchdiff: mutation path within budget")
	return nil
}

func load[T any](path string) (*T, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r T
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare gates new against old, writing a human-readable summary to w and
// returning an error on regression.
func compare(oldRep, newRep *benchReport, maxRegress float64, w *os.File) error {
	fmt.Fprintf(w, "qps: %.1f → %.1f (%+.1f%%)\n",
		oldRep.QPS, newRep.QPS, pct(oldRep.QPS, newRep.QPS))
	var failures []string
	check := func(name string, oldP95, newP95 float64) {
		fmt.Fprintf(w, "%s p95: %.3fms → %.3fms (%+.1f%%, limit +%.0f%%)\n",
			name, oldP95, newP95, pct(oldP95, newP95), maxRegress*100)
		if oldP95 > 0 && newP95 > oldP95*(1+maxRegress) {
			failures = append(failures,
				fmt.Sprintf("%s p95 regressed %.3fms → %.3fms (>%.0f%%)", name, oldP95, newP95, maxRegress*100))
		}
	}
	check("classify", oldRep.LatencyMS.P95, newRep.LatencyMS.P95)
	if oldRep.PatchLatencyMS != nil && newRep.PatchLatencyMS != nil {
		check("patch", oldRep.PatchLatencyMS.P95, newRep.PatchLatencyMS.P95)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s): %v", len(failures), failures)
	}
	fmt.Fprintln(w, "benchdiff: serve within budget")
	return nil
}

// compareResidual gates the residual path's deterministic work ratio; the
// wall-clock speedup is printed for context but never gated (it measures
// the runner as much as the code).
func compareResidual(oldRes, newRes *residualReport, maxRegress float64, w *os.File) error {
	fmt.Fprintf(w, "residual speedup: %.1fx → %.1fx (context only)\n", oldRes.Speedup, newRes.Speedup)
	fmt.Fprintf(w, "residual work ratio: %.6f → %.6f (%+.1f%%, limit +%.0f%%)\n",
		oldRes.WorkRatio, newRes.WorkRatio, pct(oldRes.WorkRatio, newRes.WorkRatio), maxRegress*100)
	if oldRes.WorkRatio > 0 && newRes.WorkRatio > oldRes.WorkRatio*(1+maxRegress) {
		return fmt.Errorf("residual work ratio regressed %.6f → %.6f (>%.0f%%): the o(Δ) patch path is touching more of the graph",
			oldRes.WorkRatio, newRes.WorkRatio, maxRegress*100)
	}
	fmt.Fprintln(w, "benchdiff: residual path within budget")
	return nil
}

func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}
