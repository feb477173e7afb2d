// Command bench is the repository's benchmark: four named workloads over
// fixed, seeded operation sequences, seven end-to-end metrics per workload,
// output checks, and a traced ladder that attributes time to the repo's
// modules by timing calls into their exported functions from outside.
//
//	go run ./cmd/bench                                     every workload once, each in a fresh process
//	go run ./cmd/bench -trace 1                            … followed by one traced run
//	go run ./cmd/bench -workload serve_mixed -seed 7       one workload, in this process
//	go run ./cmd/bench -workload serve_read -trace t.json  the traced ladder, spans written to t.json
//	go run ./cmd/bench -calibrate 10 -results cmd/bench/results/x.json
//	                                                       10 runs per workload → cmd/bench/calibration.json and a result row
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// that workload, or with -trace every per-layer metric. The exit code is
// non-zero when an operation or an output check failed. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
)

// defaultTracePath is where -trace 1 writes the spans: inside the checkout,
// in a directory .gitignore names.
const defaultTracePath = ".bench_out/trace.json"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload in this process: cold_pipeline, serve_read, serve_mixed or mutate_stream (default: all, each in a fresh process)")
	seed := flag.Uint64("seed", 1, "workload seed: which nodes are read, patched and wired, and the order the fixed ops are issued in; the graphs and the pipeline ops' seed samples are fixed data")
	seconds := flag.Int("seconds", baseSeconds, "run length the fixed op counts are scaled to")
	trace := flag.String("trace", "0", "0: untraced end-to-end run; 1: traced ladder, spans to "+defaultTracePath+"; any other value: traced ladder, spans to that file")
	calibrate := flag.Int("calibrate", 0, "run every workload this many times in fresh processes on consecutive seeds, print the run-to-run spread and write cmd/bench/calibration.json")
	results := flag.String("results", "", "with -calibrate: also run one traced ladder and write the medians and per-layer metrics to this file, a row of the committed trajectory (cmd/bench/results/)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	// One processor, recorded with every result. The reference host lends
	// its second processor only while its neighbours are idle: two threads
	// got between 1.0 and 2.0 processors' worth from one minute to the next,
	// one thread always got one. Anything that runs in parallel — the
	// kernels' workers, the garbage collector's, a second client — therefore
	// measured the neighbours (the same op read 115 or 200 ms), and nothing
	// that runs on one processor does. What the parallel schedules gain is
	// not measured here.
	runtime.GOMAXPROCS(1)

	var err error
	ok := true
	switch {
	case *calibrate > 0:
		err = calibrateAll(*calibrate, *seed, *seconds, *results)
	case *workload == "":
		ok, err = runAll(*seed, *seconds, *trace)
	case *trace != "0":
		ok, err = runTraced(*workload, *seed, *seconds, *trace)
	default:
		ok, err = runUntraced(*workload, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runUntraced measures one workload end to end and prints its report.
func runUntraced(workload string, seed uint64, seconds int) (bool, error) {
	r, err := runWorkload(workload, fullSizes.scaled(seconds), seed)
	if err != nil {
		return false, err
	}
	return report(r, seconds)
}

// report prints an untraced result; ok is false when anything failed.
func report(r *result, seconds int) (bool, error) {
	metrics := r.endToEndValues()
	r.info["workload"] = r.workload
	r.info["seed"] = r.seed
	r.info["graphs"] = fmt.Sprint(r.graphs)
	r.info["measured_seconds"] = r.measured.Seconds()
	r.info["sparse.triad_gbps"] = triadGBps()
	title := fmt.Sprintf("cmd/bench %s, untraced: end-to-end metrics", r.workload)
	if err := printRun(os.Stdout, title, seconds, r.info, endToEnd, metrics, &r.tally); err != nil {
		return false, err
	}
	return r.failed == 0 && len(r.problems) == 0, nil
}

// runTraced runs the ladder. It measures every per-layer metric whichever
// workload was named: the name only labels the run.
func runTraced(workload string, seed uint64, seconds int, tracePath string) (bool, error) {
	if !slices.Contains(workloadNames, workload) {
		return false, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if tracePath == "1" {
		tracePath = defaultTracePath
	}
	l, err := runLadder(fullSizes, seed)
	if err != nil {
		return false, err
	}
	if err := l.tr.write(tracePath); err != nil {
		return false, err
	}
	metrics := l.values()
	l.info["workload"] = workload
	l.info["seed"] = seed
	l.info["trace_file"] = tracePath
	l.info["spans"] = len(l.tr.spans)
	title := "cmd/bench traced ladder: per-layer metrics (end-to-end numbers always come from the untraced run)"
	if err := printRun(os.Stdout, title, seconds, l.info, perLayer, metrics, &l.tally); err != nil {
		return false, err
	}
	return l.failed == 0 && len(l.problems) == 0, nil
}
