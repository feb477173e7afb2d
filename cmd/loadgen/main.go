// Command loadgen is a closed-loop load generator for the serving API: C
// workers each keep exactly one request in flight, drawing random node
// batches, until a duration or request budget is exhausted. By default
// every request is a classify; -patch-frac mixes in PATCH /labels writes
// (random nodes, random classes) and -mutate-frac mixes in PATCH /edges
// topology mutations (random edge adds, removals of previously added
// edges) — the benchmarks for the residual subsystem and the
// streaming-mutation subsystem respectively. Query, patch and mutation
// latencies are reported separately. -repeat aggregates the percentiles
// over N runs instead of a single one.
//
// By default the run drives one graph (-graph). With -graphs N it becomes a
// mixed-tenant workload: N synthetic graphs are registered over POST
// /v1/graphs (and deleted afterwards), every request picks a tenant
// uniformly at random, and the report carries a per-graph latency
// breakdown alongside the aggregate — so registry contention, eviction and
// per-tenant tail latency are measured, not just single-graph throughput.
// The auto-delete is signal-safe: SIGINT/SIGTERM stop the workers and the
// registered graphs are cleaned up before exit, so an aborted burst cannot
// leak tenants into a long-lived server.
//
// The report is printed as JSON on stdout. Every request carries a
// synthetic W3C traceparent; a run in which none came back echoed exits
// non-zero, since the server then dropped trace context on every request.
//
//	loadgen -addr http://localhost:8080 -graph default -c 8 -duration 10s
//	loadgen -addr http://localhost:8080 -graph demo -requests 5000 -batch 32 -stream
//	loadgen -addr http://localhost:8080 -graphs 4 -patch-frac 0.2 -mutate-frac 0.1 -repeat 3
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"factorgraph/internal/telemetry"
)

type workload struct {
	Graph       string  `json:"graph,omitempty"`
	Graphs      int     `json:"graphs,omitempty"`
	Concurrency int     `json:"concurrency"`
	Batch       int     `json:"nodes_per_request"`
	TopK        int     `json:"top_k"`
	Stream      bool    `json:"stream"`
	Gzip        bool    `json:"gzip"`
	PatchFrac   float64 `json:"patch_frac,omitempty"`
	PatchBatch  int     `json:"patch_batch,omitempty"`
	MutateFrac  float64 `json:"mutate_frac,omitempty"`
	MutateBatch int     `json:"mutate_batch,omitempty"`
	Repeat      int     `json:"repeat"`
	DurationS   float64 `json:"duration_s"`
	Requests    int64   `json:"requests"`
	Patches     int64   `json:"patches,omitempty"`
	Mutations   int64   `json:"mutations,omitempty"`
	Errors      int64   `json:"errors"`
	GraphNodes  int     `json:"graph_nodes"`
	GraphEdges  int     `json:"graph_edges"`
}

// graphLatencies is one tenant's slice of a mixed-tenant report.
type graphLatencies struct {
	LatencyMS       latencies  `json:"latency_ms"`
	PatchLatencyMS  *latencies `json:"patch_latency_ms,omitempty"`
	MutateLatencyMS *latencies `json:"mutate_latency_ms,omitempty"`
}

type report struct {
	Workload workload `json:"workload"`
	QPS      float64  `json:"qps"`
	// LatencyMS summarizes classify (read) requests only, across every
	// graph of a mixed-tenant run; patch and mutation (write) requests are
	// reported separately so a mixed workload cannot hide write latency
	// inside read percentiles.
	LatencyMS       latencies  `json:"latency_ms"`
	PatchLatencyMS  *latencies `json:"patch_latency_ms,omitempty"`
	MutateLatencyMS *latencies `json:"mutate_latency_ms,omitempty"`
	// PerGraph breaks the same populations down by tenant (present only
	// with -graphs > 0 or as a single entry for the named graph).
	PerGraph map[string]graphLatencies `json:"per_graph,omitempty"`
	// TraceparentSent / TraceparentEchoed count the synthetic traceparent
	// headers injected on measured requests and the responses that carried
	// the same trace id back; echoed == sent means every request's trace
	// context propagated through the server.
	TraceparentSent   int64  `json:"traceparent_sent,omitempty"`
	TraceparentEchoed int64  `json:"traceparent_echoed,omitempty"`
	Timestamp         string `json:"timestamp"`
}

// target is one graph a worker can direct a request at.
type target struct {
	name                            string
	n, m, k                         int
	classifyURL, patchURL, edgesURL string
}

type config struct {
	base              string
	targets           []target
	conc, batch, topK int
	duration, warmup  time.Duration
	requests          int64
	stream, gz        bool
	patchFrac         float64
	patchBatch        int
	mutateFrac        float64
	mutateBatch       int
	seed              int64
}

// params is the parsed flag set; run is factored over it so tests can
// drive the full workflow (including the abort-cleanup paths) against a
// fake server without touching global flag state.
type params struct {
	addr, graph             string
	graphs, graphsNodes     int
	graphsEdges             int
	keepGraphs              bool
	graphsAsyncCompact      bool
	conc, batch, topK       int
	duration, warmup        time.Duration
	requests                int64
	stream, gz              bool
	seed                    int64
	repeat                  int
	patchFrac, mutateFrac   float64
	patchBatch, mutateBatch int
}

// runResult is one run's raw measurements, indexed by target, plus its
// traceparent round-trip counts.
type runResult struct {
	queries, patches, mutates [][]time.Duration
	errs                      int64
	elapsed                   time.Duration
	tracesSent, tracesEchoed  int64
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var p params
	flag.StringVar(&p.addr, "addr", "http://127.0.0.1:8080", "server base URL")
	flag.StringVar(&p.graph, "graph", "default", "graph name to drive (single-tenant mode)")
	flag.IntVar(&p.graphs, "graphs", 0, "mixed-tenant mode: register N synthetic graphs and spread the workload across them")
	flag.IntVar(&p.graphsNodes, "graphs-nodes", 2000, "mixed-tenant: nodes per registered graph")
	flag.IntVar(&p.graphsEdges, "graphs-edges", 0, "mixed-tenant: edges per registered graph (0 = 5× nodes)")
	flag.BoolVar(&p.graphsAsyncCompact, "async-compact", false, "mixed-tenant: register graphs with background topology compaction (epoch swap off the mutation path)")
	flag.BoolVar(&p.keepGraphs, "keep-graphs", false, "mixed-tenant: leave the registered graphs in place after the run")
	flag.IntVar(&p.conc, "c", 8, "concurrent closed-loop workers")
	flag.DurationVar(&p.duration, "duration", 10*time.Second, "run length (ignored when -requests > 0)")
	flag.Int64Var(&p.requests, "requests", 0, "per-run request budget (0 = duration-bound)")
	flag.IntVar(&p.batch, "batch", 16, "nodes per classify request")
	flag.IntVar(&p.topK, "topk", 2, "top-k class scores per node")
	flag.BoolVar(&p.stream, "stream", false, "request NDJSON streaming responses")
	flag.BoolVar(&p.gz, "gzip", false, "advertise Accept-Encoding: gzip")
	flag.DurationVar(&p.warmup, "warmup", 500*time.Millisecond, "measurement excluded warm-up period")
	flag.Int64Var(&p.seed, "seed", 1, "node-sampling RNG seed")
	flag.IntVar(&p.repeat, "repeat", 1, "number of measured runs; percentiles aggregate across all of them")
	flag.Float64Var(&p.patchFrac, "patch-frac", 0, "fraction of requests that are PATCH /labels writes (mixed patch+query workload)")
	flag.IntVar(&p.patchBatch, "patch-batch", 1, "seed labels set per patch request")
	flag.Float64Var(&p.mutateFrac, "mutate-frac", 0, "fraction of requests that are PATCH /edges topology mutations (mixed edge-mutation workload)")
	flag.IntVar(&p.mutateBatch, "mutate-batch", 1, "edge mutations per PATCH /edges request")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context: workers stop, the run returns,
	// and the deferred graph cleanup still executes — an aborted burst
	// must not leak registered tenants into a long-lived server.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return execute(ctx, p)
}

func execute(ctx context.Context, p params) error {
	if p.repeat < 1 {
		return fmt.Errorf("-repeat must be ≥ 1, got %d", p.repeat)
	}
	if p.patchFrac < 0 || p.patchFrac > 1 {
		return fmt.Errorf("-patch-frac %v outside [0,1]", p.patchFrac)
	}
	if p.patchBatch < 1 {
		return fmt.Errorf("-patch-batch must be ≥ 1, got %d", p.patchBatch)
	}
	if p.mutateFrac < 0 || p.mutateFrac > 1 {
		return fmt.Errorf("-mutate-frac %v outside [0,1]", p.mutateFrac)
	}
	if p.patchFrac+p.mutateFrac > 1 {
		return fmt.Errorf("-patch-frac + -mutate-frac = %v exceeds 1", p.patchFrac+p.mutateFrac)
	}
	if p.mutateBatch < 1 {
		return fmt.Errorf("-mutate-batch must be ≥ 1, got %d", p.mutateBatch)
	}
	if p.graphs < 0 {
		return fmt.Errorf("-graphs must be ≥ 0, got %d", p.graphs)
	}

	base := strings.TrimRight(p.addr, "/")
	var targets []target
	if p.graphs > 0 {
		edges := p.graphsEdges
		if edges == 0 {
			edges = 5 * p.graphsNodes
		}
		names, err := registerGraphs(ctx, base, p.graphs, p.graphsNodes, edges, p.graphsAsyncCompact, uint64(p.seed))
		// The cleanup is registered BEFORE the error check: a partial
		// registration (or a signal mid-burst) must still delete whatever
		// was admitted. deleteGraphs is idempotent and detached from ctx —
		// it must run precisely when ctx was canceled.
		if !p.keepGraphs {
			defer deleteGraphs(base, names)
		}
		if err != nil {
			return err
		}
		for _, name := range names {
			t, err := resolveTarget(base, name)
			if err != nil {
				return err
			}
			targets = append(targets, t)
		}
	} else {
		t, err := resolveTarget(base, p.graph)
		if err != nil {
			return err
		}
		targets = []target{t}
	}
	minN := targets[0].n
	for _, t := range targets {
		if t.n < minN {
			minN = t.n
		}
	}
	if p.batch > minN {
		p.batch = minN
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d graph(s) (%d nodes each at least); %d workers, batch=%d, top_k=%d, patch_frac=%g, mutate_frac=%g, repeat=%d\n",
		len(targets), minN, p.conc, p.batch, p.topK, p.patchFrac, p.mutateFrac, p.repeat)

	cfg := config{
		base: base, targets: targets,
		conc: p.conc, batch: p.batch, topK: p.topK,
		duration: p.duration, warmup: p.warmup, requests: p.requests,
		stream: p.stream, gz: p.gz,
		patchFrac: p.patchFrac, patchBatch: p.patchBatch,
		mutateFrac: p.mutateFrac, mutateBatch: p.mutateBatch,
		seed: p.seed,
	}

	queries := make([][]time.Duration, len(targets))
	patches := make([][]time.Duration, len(targets))
	mutates := make([][]time.Duration, len(targets))
	var nErrs, tracesSent, tracesEchoed int64
	var elapsed time.Duration
	for r := 0; r < p.repeat; r++ {
		res, err := runOnce(ctx, cfg, int64(r))
		if err != nil {
			return fmt.Errorf("run %d/%d: %w", r+1, p.repeat, err)
		}
		for t := range targets {
			queries[t] = append(queries[t], res.queries[t]...)
			patches[t] = append(patches[t], res.patches[t]...)
			mutates[t] = append(mutates[t], res.mutates[t]...)
		}
		nErrs += res.errs
		elapsed += res.elapsed
		tracesSent += res.tracesSent
		tracesEchoed += res.tracesEchoed
		if ctx.Err() != nil {
			break // aborted: report what was measured, then clean up
		}
	}
	var allQ, allP, allM []time.Duration
	perGraph := make(map[string]graphLatencies, len(targets))
	for t, tgt := range targets {
		allQ = append(allQ, queries[t]...)
		allP = append(allP, patches[t]...)
		allM = append(allM, mutates[t]...)
		gl := graphLatencies{LatencyMS: summarize(queries[t])}
		if len(patches[t]) > 0 {
			pl := summarize(patches[t])
			gl.PatchLatencyMS = &pl
		}
		if len(mutates[t]) > 0 {
			ml := summarize(mutates[t])
			gl.MutateLatencyMS = &ml
		}
		perGraph[tgt.name] = gl
	}
	if len(allQ) == 0 {
		return fmt.Errorf("no successful measured classify requests (%d errors)", nErrs)
	}

	wl := workload{
		Concurrency: p.conc, Batch: p.batch, TopK: p.topK,
		Stream: p.stream, Gzip: p.gz,
		PatchFrac: p.patchFrac, PatchBatch: p.patchBatch,
		MutateFrac: p.mutateFrac, MutateBatch: p.mutateBatch,
		Repeat:    p.repeat,
		DurationS: elapsed.Seconds(),
		Requests:  int64(len(allQ) + len(allP) + len(allM)),
		Patches:   int64(len(allP)), Mutations: int64(len(allM)), Errors: nErrs,
		GraphNodes: targets[0].n, GraphEdges: targets[0].m,
	}
	if p.graphs > 0 {
		wl.Graphs = len(targets)
	} else {
		wl.Graph = targets[0].name
	}
	rep := report{
		Workload:          wl,
		QPS:               float64(wl.Requests) / elapsed.Seconds(),
		LatencyMS:         summarize(allQ),
		PerGraph:          perGraph,
		TraceparentSent:   tracesSent,
		TraceparentEchoed: tracesEchoed,
		Timestamp:         time.Now().UTC().Format(time.RFC3339),
	}
	if len(allP) > 0 {
		pl := summarize(allP)
		rep.PatchLatencyMS = &pl
	}
	if len(allM) > 0 {
		ml := summarize(allM)
		rep.MutateLatencyMS = &ml
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if tracesSent > 0 && tracesEchoed == 0 {
		return fmt.Errorf("none of %d responses echoed a traceparent (server predates tracing, or telemetry is disabled)", tracesSent)
	}
	return nil
}

// runOnce executes one closed-loop measurement run across cfg.targets.
// Cancelling ctx stops the workers early (signal-initiated shutdown).
func runOnce(ctx context.Context, cfg config, run int64) (runResult, error) {
	rq := &requester{ctx: ctx, client: &http.Client{Timeout: 60 * time.Second}}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		qAll     = make([][]time.Duration, len(cfg.targets))
		pAll     = make([][]time.Duration, len(cfg.targets))
		mAll     = make([][]time.Duration, len(cfg.targets))
		tickets  int64 // request budget ticket counter (budget mode only)
		nErrs    int64
		budget   = cfg.requests
		warmup   = cfg.warmup
		stop     = make(chan struct{})
		started  = time.Now()
		measured atomic.Bool
	)
	if budget > 0 {
		// A fixed request budget measures every request: a warm-up window
		// would silently discard samples (all of them, for a budget that
		// drains faster than the window).
		warmup = 0
	}
	if warmup == 0 {
		measured.Store(true)
	} else {
		go func() {
			time.Sleep(warmup)
			measured.Store(true)
		}()
	}
	if budget == 0 {
		go func() {
			select {
			case <-time.After(cfg.duration + warmup):
			case <-ctx.Done():
			}
			close(stop)
		}()
	} else {
		go func() {
			<-ctx.Done()
			close(stop)
		}()
	}
	measureStart := started.Add(warmup)

	for w := 0; w < cfg.conc; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + run*1000003 + int64(worker)))
			qLocal := make([][]time.Duration, len(cfg.targets))
			pLocal := make([][]time.Duration, len(cfg.targets))
			mLocal := make([][]time.Duration, len(cfg.targets))
			// addedEdges tracks the edges this worker added per target, so
			// mutation removals target edges known to exist.
			addedEdges := make([][][2]int, len(cfg.targets))
			flush := func() {
				mu.Lock()
				for t := range cfg.targets {
					qAll[t] = append(qAll[t], qLocal[t]...)
					pAll[t] = append(pAll[t], pLocal[t]...)
					mAll[t] = append(mAll[t], mLocal[t]...)
				}
				mu.Unlock()
			}
			for {
				select {
				case <-stop:
					flush()
					return
				default:
				}
				if budget > 0 && atomic.AddInt64(&tickets, 1) > budget {
					flush()
					return
				}
				ti := 0
				if len(cfg.targets) > 1 {
					ti = rng.Intn(len(cfg.targets))
				}
				tgt := cfg.targets[ti]
				var lat time.Duration
				var err error
				kind := 0 // 0 = classify, 1 = patch, 2 = mutate
				if roll := rng.Float64(); cfg.patchFrac > 0 && roll < cfg.patchFrac {
					kind = 1
				} else if cfg.mutateFrac > 0 && roll < cfg.patchFrac+cfg.mutateFrac {
					kind = 2
				}
				switch kind {
				case 1:
					lat, err = onePatch(rq, tgt.patchURL, rng, tgt.n, tgt.k, cfg.patchBatch)
				case 2:
					lat, err = oneMutate(rq, tgt.edgesURL, rng, tgt.n, cfg.mutateBatch, &addedEdges[ti])
				default:
					lat, err = oneRequest(rq, tgt.classifyURL, rng, tgt.n, cfg.batch, cfg.topK, cfg.stream, cfg.gz)
				}
				if err != nil {
					atomic.AddInt64(&nErrs, 1)
					continue
				}
				if measured.Load() {
					switch kind {
					case 1:
						pLocal[ti] = append(pLocal[ti], lat)
					case 2:
						mLocal[ti] = append(mLocal[ti], lat)
					default:
						qLocal[ti] = append(qLocal[ti], lat)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(measureStart)
	if elapsed <= 0 {
		elapsed = time.Since(started)
	}
	return runResult{
		queries: qAll, patches: pAll, mutates: mAll,
		errs: atomic.LoadInt64(&nErrs), elapsed: elapsed,
		tracesSent: rq.sent.Load(), tracesEchoed: rq.echoed.Load(),
	}, nil
}

// registerGraphs admits count synthetic graphs (warm, so the benchmark
// excludes build cost) and returns the names admitted so far — on error or
// cancellation the partial list is returned alongside, so the caller's
// deferred cleanup can release them.
func registerGraphs(ctx context.Context, base string, count, nodes, edges int, asyncCompact bool, seed uint64) ([]string, error) {
	names := make([]string, 0, count)
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			return names, err
		}
		name := fmt.Sprintf("lg-%d", i)
		body, err := json.Marshal(map[string]any{
			"name":          name,
			"async_compact": asyncCompact,
			"warm":          true,
			"synthetic": map[string]any{
				"n": nodes, "m": edges, "f": 0.1, "seed": seed + uint64(i),
			},
		})
		if err != nil {
			return names, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/graphs", bytes.NewReader(body))
		if err != nil {
			return names, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return names, fmt.Errorf("registering %s: %w", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
			names = append(names, name)
		case http.StatusConflict:
			// Left over from a -keep-graphs run: reuse it.
			names = append(names, name)
		default:
			return names, fmt.Errorf("registering %s: status %d", name, resp.StatusCode)
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: registered %d synthetic graphs (%d nodes, %d edges each)\n", len(names), nodes, edges)
	return names, nil
}

// deleteGraphs best-effort unregisters the graphs a mixed-tenant run
// admitted. Deliberately context-free: it runs AFTER the run context was
// canceled (that is the point — cleanup on abort).
func deleteGraphs(base string, names []string) {
	client := &http.Client{Timeout: 10 * time.Second}
	for _, name := range names {
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/graphs/%s", base, name), nil)
		if err != nil {
			continue
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// resolveTarget resolves a graph's node/edge/class counts, warming the
// engine with a one-node classify first so a cold (or file-backed) graph
// reports real dimensions and the benchmark excludes the one-off build.
func resolveTarget(base, graph string) (target, error) {
	n, m, k, err := graphDims(base, graph)
	if err != nil {
		return target{}, err
	}
	return target{
		name: graph, n: n, m: m, k: k,
		classifyURL: fmt.Sprintf("%s/v1/graphs/%s/classify", base, graph),
		patchURL:    fmt.Sprintf("%s/v1/graphs/%s/labels", base, graph),
		edgesURL:    fmt.Sprintf("%s/v1/graphs/%s/edges", base, graph),
	}, nil
}

func graphDims(base, graph string) (n, m, k int, err error) {
	warmBody := `{"nodes":[0]}`
	resp, err := http.Post(fmt.Sprintf("%s/v1/graphs/%s/classify", base, graph),
		"application/json", strings.NewReader(warmBody))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("warm-up classify: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("warm-up classify: status %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/graphs/%s", base, graph))
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("GET /v1/graphs/%s: status %d", graph, resp.StatusCode)
	}
	var info struct {
		Nodes   int `json:"nodes"`
		Edges   int `json:"edges"`
		Classes int `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, 0, 0, err
	}
	if info.Nodes <= 0 {
		return 0, 0, 0, fmt.Errorf("graph %q reports %d nodes", graph, info.Nodes)
	}
	if info.Classes < 2 {
		info.Classes = 2
	}
	return info.Nodes, info.Edges, info.Classes, nil
}

// oneRequest issues a single classify call and returns its latency.
func oneRequest(rq *requester, url string, rng *rand.Rand, n, batch, topK int, stream, gz bool) (time.Duration, error) {
	nodes := make([]int, batch)
	for i := range nodes {
		nodes[i] = rng.Intn(n)
	}
	body, err := json.Marshal(map[string]any{
		"nodes": nodes, "top_k": topK, "stream": stream,
	})
	if err != nil {
		return 0, err
	}
	return rq.timedDo("POST", url, body, gz)
}

// onePatch issues a single PATCH /labels call setting patchBatch random
// nodes to random classes.
func onePatch(rq *requester, url string, rng *rand.Rand, n, k, patchBatch int) (time.Duration, error) {
	set := make(map[string]int, patchBatch)
	for i := 0; i < patchBatch; i++ {
		set[strconv.Itoa(rng.Intn(n))] = rng.Intn(k)
	}
	body, err := json.Marshal(map[string]any{"set": set})
	if err != nil {
		return 0, err
	}
	return rq.timedDo("PATCH", url, body, false)
}

// oneMutate issues a single PATCH /edges topology mutation: each op either
// adds a random edge (recorded in added) or removes a previously added one,
// so the graph churns without drifting unboundedly and removals always
// target existing edges.
func oneMutate(rq *requester, url string, rng *rand.Rand, n, mutateBatch int, added *[][2]int) (time.Duration, error) {
	var set, remove [][2]int
	for i := 0; i < mutateBatch; i++ {
		if len(*added) > 0 && rng.Intn(2) == 0 {
			last := len(*added) - 1
			pick := rng.Intn(len(*added))
			e := (*added)[pick]
			(*added)[pick] = (*added)[last]
			*added = (*added)[:last]
			remove = append(remove, e)
			continue
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		set = append(set, [2]int{u, v})
		*added = append(*added, [2]int{u, v})
	}
	req := struct {
		Set    [][2]int `json:"set,omitempty"`
		Remove [][2]int `json:"remove,omitempty"`
	}{Set: set, Remove: remove}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	return rq.timedDo("PATCH", url, body, false)
}

// requester issues one run's requests. Each carries the run's context, so an
// abort cancels the requests in flight instead of waiting out the client
// timeout on a stalled server. Each also carries a synthetic W3C traceparent;
// sent / echoed count those and the responses that returned the same trace
// id, proving trace-context propagation end to end.
type requester struct {
	ctx          context.Context
	client       *http.Client
	sent, echoed atomic.Int64
}

func (rq *requester) timedDo(method, url string, body []byte, gz bool) (time.Duration, error) {
	req, err := http.NewRequestWithContext(rq.ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	// Inject an unsampled traceparent: the server keeps the trace id (its
	// response header proves the round trip) but its own head sampler
	// decides capture, so injection never distorts the measured workload by
	// forcing every request into the trace store.
	tid := telemetry.NewTraceID()
	req.Header.Set("traceparent", telemetry.Traceparent(tid, telemetry.NewSpanID(), false))
	rq.sent.Add(1)
	start := time.Now()
	resp, err := rq.client.Do(req)
	if err != nil {
		return 0, err
	}
	if rtid, _, _, ok := telemetry.ParseTraceparent(resp.Header.Get("traceparent")); ok && rtid == tid {
		rq.echoed.Add(1)
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if copyErr != nil {
		return 0, copyErr
	}
	return lat, nil
}
