package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// calibrationPath is where -calibrate writes its result; the committed copy
// documents how the bounds in BENCHMARK.json were chosen.
const calibrationPath = "cmd/bench/calibration.json"

// childRun is what one subprocess run reported.
type childRun struct {
	out  output
	info map[string]any
	wall time.Duration
}

// runChild re-executes this binary for one workload, passes its report
// through to standard output, waits for it to end and parses the two
// machine-readable lines it finished with. Each workload gets a fresh
// process so that one workload's heap, caches and tuned schedule cannot
// leak into the next one's numbers.
func runChild(workload string, seed uint64, seconds int, trace string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	runErr := cmd.Run() // waits for the child to exit
	run := &childRun{wall: time.Since(start)}
	os.Stdout.Write(stdout.Bytes())
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, infoPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &run.info); err != nil {
				return nil, fmt.Errorf("%s: header line: %w", workload, err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &run.out); err != nil || run.out.Metrics == nil {
		return nil, fmt.Errorf("%s: no result line (exit: %v)", workload, runErr)
	}
	return run, nil
}

// runAll is the default mode: every workload once, each in a fresh
// process, then (with -trace) one traced ladder.
func runAll(seed uint64, seconds int, trace string) (bool, error) {
	ok := true
	for _, w := range workloadNames {
		run, err := runChild(w, seed, seconds, "0")
		if err != nil {
			return false, err
		}
		ok = ok && run.out.Correct
		fmt.Printf("# %s: process wall time %.1f s\n\n", w, run.wall.Seconds())
	}
	if trace != "0" {
		run, err := runChild(workloadNames[0], seed, seconds, trace)
		if err != nil {
			return false, err
		}
		ok = ok && run.out.Correct
	}
	return ok, nil
}

// metricSpread summarises one end-to-end metric over the runs of one
// workload.
type metricSpread struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	// Deviation is the largest pairwise difference, (max − min) / median.
	Deviation float64 `json:"deviation"`
	// IQRShare is the driver's statistic: (Q3 − Q1) / median.
	IQRShare float64 `json:"iqr_share"`
	// Floor is the bound the issue asked for; Bound is what these runs ask
	// for.
	Floor float64 `json:"floor"`
	Bound float64 `json:"bound"`
}

// boundFloors are the smallest bounds worth having, per metric: below them
// a "regression" is within what one commit does run to run.
var boundFloors = map[string]float64{
	"setup_s": 0.15, "main_p50_ms": 0.10, "main_tail_ms": 0.20, "throughput_per_s": 0.10,
	"side_p50_ms": 0.10, "accuracy": 0.0065, "live_heap_mb": 0.05,
}

// calibration is the file -calibrate writes.
type calibration struct {
	Host      map[string]any                     `json:"host"`
	Seed      uint64                             `json:"first_seed"`
	Seconds   int                                `json:"seconds"`
	Runs      int                                `json:"runs"`
	Workloads map[string]map[string]metricSpread `json:"workloads"`
	// Info keeps each run's header: tuned schedule, compaction count,
	// measured-phase seconds — the things that must repeat exactly or
	// explain a run that does not.
	Info map[string][]map[string]any `json:"info"`
}

// resultSet is one row of the committed trajectory (results/*.json): the
// median of every end-to-end metric per workload and one traced ladder.
type resultSet struct {
	Host     map[string]any              `json:"host"`
	Seed     uint64                      `json:"first_seed"`
	Seconds  int                         `json:"seconds"`
	Runs     int                         `json:"runs_per_workload"`
	EndToEnd map[string]map[string]value `json:"end_to_end"` // workload → metric → median
	PerLayer map[string]value            `json:"per_layer"`
	Info     map[string]map[string]any   `json:"info"` // workload (and "ladder") → last run's header
	Bounds   map[string]float64          `json:"suggested_bounds"`
}

// calibrateAll runs every workload n times, each run in a fresh process on
// its own seed (seed, seed+1, …) as the driver does, so the spread it sees
// is what the host's noise and the choice of operations add up to. It
// prints min / median / max, the largest pairwise deviation and the
// driver's IQR share of every end-to-end metric, and writes calibrationPath.
func calibrateAll(n int, seed uint64, seconds int, resultsPath string) error {
	results := resultSet{
		Host: hostHeader(), Seed: seed, Seconds: seconds, Runs: n,
		EndToEnd: map[string]map[string]value{}, Info: map[string]map[string]any{},
		Bounds: map[string]float64{},
	}
	cal := calibration{
		Host: hostHeader(), Seed: seed, Seconds: seconds, Runs: n,
		Workloads: map[string]map[string]metricSpread{},
		Info:      map[string][]map[string]any{},
	}
	for _, w := range workloadNames {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			run, err := runChild(w, seed+uint64(i), seconds, "0")
			if err != nil {
				return err
			}
			if !run.out.Correct {
				return fmt.Errorf("%s run %d failed its checks; calibration needs clean runs", w, i+1)
			}
			for name, v := range run.out.Metrics {
				values[name] = append(values[name], v.Value)
			}
			cal.Info[w] = append(cal.Info[w], run.info)
			results.Info[w] = run.info
		}
		cal.Workloads[w], results.EndToEnd[w] = map[string]metricSpread{}, map[string]value{}
		fmt.Printf("\n## %s: %d runs, seeds %d…\n%-18s %12s %12s %12s %10s %10s %8s\n", w, n, seed,
			"metric", "min", "median", "max", "deviation", "iqr/med", "bound")
		for _, d := range endToEnd {
			asc := sorted(values[d.name])
			s := metricSpread{
				Unit: d.unit, Values: values[d.name],
				Min: asc[0], Median: median(asc), Max: asc[len(asc)-1],
				IQRShare: spread(asc), Floor: boundFloors[d.name],
			}
			s.Deviation = (s.Max - s.Min) / s.Median
			// The issue's rule (twice the largest deviation) and the
			// driver's (three times the IQR share), whichever asks for
			// more, between the floor and the contract's cap.
			s.Bound = math.Min(0.25, math.Max(s.Floor, math.Ceil(100*math.Max(2*s.Deviation, 3*s.IQRShare))/100))
			results.EndToEnd[w][d.name] = value{Value: s.Median, Unit: d.unit}
			results.Bounds[d.name] = math.Max(results.Bounds[d.name], s.Bound)
			cal.Workloads[w][d.name] = s
			fmt.Printf("%-18s %12.6g %12.6g %12.6g %9.2f%% %9.2f%% %7.0f%%\n",
				d.name, s.Min, s.Median, s.Max, s.Deviation*100, s.IQRShare*100, s.Bound*100)
		}
	}
	fmt.Printf("\n## bounds: the largest any workload asks for\n")
	for _, d := range endToEnd {
		fmt.Printf("%-18s %4.0f%%   (BENCHMARK.json carries %.0f%%)\n", d.name, results.Bounds[d.name]*100, d.bound*100)
	}
	b, err := json.MarshalIndent(cal, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(calibrationPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", calibrationPath)
	if resultsPath == "" {
		return nil
	}
	ladder, err := runChild(workloadNames[0], seed, seconds, "1")
	if err != nil {
		return err
	}
	if !ladder.out.Correct {
		return fmt.Errorf("the traced ladder failed its checks")
	}
	results.PerLayer, results.Info["ladder"] = ladder.out.Metrics, ladder.info
	if b, err = json.MarshalIndent(results, "", "  "); err != nil {
		return err
	}
	if err := os.WriteFile(resultsPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", resultsPath)
	return nil
}
