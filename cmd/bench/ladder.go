package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"factorgraph"
	"factorgraph/internal/core"
	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/propagation"
	"factorgraph/internal/telemetry"
)

// Span names of the ladder. The three depths nest: an op's http span holds
// its serve span, which holds its engine span, which holds the two waits
// the Engine reports about itself.
const (
	spanHTTP     = "http"
	spanServe    = "serve"
	spanEngine   = "engine"
	spanLockWait = "engine.lock_wait"
	spanFlush    = "residual.flush"

	spanPipeline  = "pipeline"
	spanSummarize = "core.summarize"
	spanOptimize  = "core.optimize"
	spanLabels    = "labels.matrix"
	spanLinBP     = "propagation.linbp"
)

// ladder is one traced run: a short block of every workload replayed with
// spans around each call into a layer, plus the kernel measurements. Every
// per-layer metric comes out of one ladder, whichever workload the command
// line named, so the numbers of two traced runs are always comparable.
type ladder struct {
	sz   sizes
	seed uint64
	tr   *tracer
	m    map[string]float64 // per-layer metric values by name
	info map[string]any
	tally
	checker // of the graph the current section replays against
}

func runLadder(sz sizes, seed uint64) (*ladder, error) {
	l := &ladder{sz: sz, seed: seed, tr: newTracer(), m: map[string]float64{}, info: map[string]any{}}
	dU, err := generate(sz.uni, graphSeed)
	if err != nil {
		return nil, err
	}
	l.m["gen.generate_ms"] = ms(dU.genDur)
	dP5, err := generate(sz.pow5, graphSeed)
	if err != nil {
		return nil, err
	}
	dP3, err := generate(sz.pow, graphSeed)
	if err != nil {
		return nil, err
	}
	for _, step := range []func() error{
		l.kernelLadder,
		func() error { return l.readLadder(dU) },
		func() error { return l.pipelineLadder(dU, dP5) },
		func() error { return l.mixedLadder(dP3) },
		func() error { return l.mutateLadder(dP3) },
	} {
		runtime.GC()
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// values renders the collected metrics in the declared order and units; a
// metric the ladder failed to produce is a failed check.
func (l *ladder) values() map[string]value {
	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		v, ok := l.m[d.name]
		if !ok || v != v {
			l.problem("per-layer metric %s was not measured", d.name)
			v = 0
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}

// lane is one depth of a ladder replay: the issuer that sends requests at
// that depth, the span name it records under, and the tracer it records to
// (nil: the lane is replayed but not recorded).
type lane struct {
	name string
	is   issuer
	tr   *tracer
}

// issue sends one request down one lane, checks the reply — a failure
// counts against the run exactly as in the untraced workloads — and records
// its span.
func (l *ladder) issue(ln lane, workload string, i int, rq *request) outcome {
	start := time.Now()
	o, _ := l.send(ln.is, rq, &l.tally)
	o.body = nil // only valid until the next issue
	if o.status != 0 {
		ln.tr.add(opID(workload, rq.kind, i), ln.name, parentOf[ln.name], start, o.wall)
	}
	return o
}

// replay sends the whole of reqs down one lane.
func (l *ladder) replay(ln lane, workload string, reqs []*request) []outcome {
	return l.replayInterleaved([]lane{ln}, workload, reqs)[0]
}

// replayInterleaved sends each request down every lane before moving to
// the next request. The host's speed drifts over seconds; issuing the
// depths of one op back to back puts them in the same weather, so the
// differences between depths — the self times — are far steadier than the
// depths themselves. Each lane must own its state (or the ops must be
// reads), since all lanes see the full sequence.
func (l *ladder) replayInterleaved(lanes []lane, workload string, reqs []*request) [][]outcome {
	outs := make([][]outcome, len(lanes))
	for d := range outs {
		outs[d] = make([]outcome, len(reqs))
	}
	for i, rq := range reqs {
		for d, ln := range lanes {
			outs[d][i] = l.issue(ln, workload, i, rq)
		}
	}
	return outs
}

var parentOf = map[string]string{spanHTTP: "", spanServe: spanHTTP, spanEngine: spanServe}

func opID(workload string, kind opKind, i int) string {
	return fmt.Sprintf("%s/%s/%d", workload, kind, i)
}

// nest re-bases the inner depths' spans onto the http span of the same op.
// The three depths ran one after another (on one engine for reads, on three
// identically prepared engines for writes), so their spans do not overlap
// in time as recorded; moving each child to its parent's start makes the
// tree a tree, and self time = span − children then splits the
// client-observed latency into http + serve + engine + lock wait + flush.
// The engine's own two waits come from the meta struct its method returned.
func (l *ladder) nest(workload string, reqs []*request, engine []outcome) {
	starts := map[string]int64{}
	for _, s := range l.tr.spans {
		if s.Name == spanHTTP {
			starts[s.Op] = s.Start
		}
	}
	for i := range l.tr.spans {
		s := &l.tr.spans[i]
		if at, ok := starts[s.Op]; ok && (s.Name == spanServe || s.Name == spanEngine) {
			s.Start, s.End = at, at+(s.End-s.Start)
		}
	}
	for i, rq := range reqs {
		op := opID(workload, rq.kind, i)
		at, ok := starts[op]
		if !ok || (rq.kind != opPatch && rq.kind != opMutate) {
			continue
		}
		start := l.tr.origin.Add(time.Duration(at))
		start = l.tr.add(op, spanLockWait, spanEngine, start, engine[i].lockWait)
		l.tr.add(op, spanFlush, spanEngine, start, engine[i].flush)
	}
}

// medianSelf is the median self time, in ns, of the spans called name in
// the ops of one workload and kind.
func (l *ladder) medianSelf(workload string, kind opKind, name string) float64 {
	return median(selfByName(l.tr.spans, workload+"/"+kind.String()+"/")[name])
}

func pick(outs []outcome, reqs []*request, kind opKind, f func(outcome) float64) []float64 {
	var xs []float64
	for i, o := range outs {
		if reqs[i].kind == kind && o.status != 0 {
			xs = append(xs, f(o))
		}
	}
	return xs
}

func wallNS(o outcome) float64 { return float64(o.wall) }

// readLadder builds the serve_read rig once — timing the build for the
// set-up metrics — and uses it for the engine's direct read calls and the
// serve_read block at all three depths. Reads change no state, so one
// engine serves every depth.
func (l *ladder) readLadder(d *graphData) error {
	const wl = "serve_read"
	l.checker = checker{d.spec.n, d.spec.k}
	g := newReqGen(l.seed, "ladder/"+wl)
	rg, err := newRig(d.spec.n, d.edges, d.seeds, d.spec.k, nil, true)
	if err != nil {
		return err
	}
	defer rg.close()
	l.m["engine.build_ms"] = ms(rg.engineDur)
	hc := newHTTPIssuer(rg.base)
	defer hc.close()
	httpLane, serveLane, engineLane := lane{spanHTTP, hc, l.tr}, lane{spanServe, &serveIssuer{srv: rg.srv}, l.tr}, lane{spanEngine, engineIssuer{rg.eng}, l.tr}
	quiet := func(ln lane) lane { ln.tr = nil; return ln }

	first := l.replay(quiet(engineLane), wl, []*request{g.point(d.spec.n)})
	l.m["engine.first_query_ms"] = ms(first[0].wall)
	l.replay(quiet(httpLane), wl, []*request{g.point(d.spec.n), g.stream()})
	l.info["serve_read_schedule"] = scheduleOf(rg.eng)

	var reqs []*request
	for i := 0; i < l.sz.ladderPoints; i++ {
		reqs = append(reqs, g.point(d.spec.n))
	}
	for i := 0; i < l.sz.ladderStreams; i++ {
		reqs = append(reqs, g.stream())
	}
	// Depth by depth, not interleaved: a point request costs tens of
	// microseconds, and one that follows a different depth's call finds the
	// net/http path cold, which a closed loop of point requests never does.
	// Two comparisons ride along on the point requests, each as A-B-A so a
	// drifting host cancels: the http depth recorded vs unrecorded (what
	// tracing costs), and the serve depth with telemetry's process-wide kill
	// switch on vs off (what telemetry costs a request).
	points := reqs[:l.sz.ladderPoints]
	silent := lane{spanServe, issuerFunc(func(rq *request) (outcome, error) {
		telemetry.SetEnabled(false)
		defer telemetry.SetEnabled(true)
		return serveLane.is.issue(rq)
	}), nil}
	aba := func(a, b lane) (all []outcome, excess, base float64) {
		scratch := a
		scratch.tr = newTracer()
		before := pick(l.replay(scratch, wl, points), points, opPoint, wallNS)
		base = median(pick(l.replay(b, wl, points), points, opPoint, wallNS))
		all = l.replay(a, wl, reqs)
		return all, median(append(before, pick(all, reqs, opPoint, wallNS)...)) - base, base
	}
	_, traceNS, untracedNS := aba(httpLane, quiet(httpLane))
	served, telemetryNS, _ := aba(serveLane, silent)
	engine := l.replay(engineLane, wl, reqs)
	l.nest(wl, reqs, engine)
	l.m["bench.trace_overhead_share"] = traceNS / untracedNS
	l.m["telemetry.point_overhead_us"] = telemetryNS / 1e3

	l.m["http.point_self_us"] = l.medianSelf(wl, opPoint, spanHTTP) / 1e3
	l.m["serve.point_self_us"] = l.medianSelf(wl, opPoint, spanServe) / 1e3
	l.m["engine.classify_point_us"] = l.medianSelf(wl, opPoint, spanEngine) / 1e3
	l.m["http.stream_self_ms"] = l.medianSelf(wl, opStream, spanHTTP) / 1e6
	l.m["serve.stream_self_ms"] = l.medianSelf(wl, opStream, spanServe) / 1e6
	l.m["engine.classify_all_ms"] = l.medianSelf(wl, opStream, spanEngine) / 1e6
	l.m["serve.stream_ns_per_record"] = l.medianSelf(wl, opStream, spanServe) / float64(d.spec.n)
	l.m["serve.stream_bytes"] = median(pick(served, reqs, opStream, func(o outcome) float64 { return float64(o.bytes) }))

	const acquires = 20000
	start := time.Now()
	for i := 0; i < acquires; i++ {
		_, release, err := rg.reg.Acquire(graphName)
		if err != nil {
			return err
		}
		release()
	}
	l.m["registry.acquire_ns"] = float64(time.Since(start)) / acquires
	return nil
}

// kernelLadder times the sparse layer on the kernel graph, whose CSR
// (24 MB) no cache of the host holds: the dispatched SpMM with a 3- and a
// 5-column right-hand side, the reference scan, the float32 kernel, the CSR
// build, the spectral radius, the overlay's SetEdge, and the triad all
// bandwidths are read against. The workloads' own graphs are cache-resident
// (see sizes), so this is where the kernels meet memory.
func (l *ladder) kernelLadder() error {
	d, err := generate(l.sz.kernel, graphSeed)
	if err != nil {
		return err
	}
	start := time.Now()
	g, err := factorgraph.NewGraph(d.spec.n, d.edges)
	if err != nil {
		return err
	}
	l.m["sparse.csr_build_ms"] = ms(time.Since(start))
	l.info["kernel_graph"] = d.spec.String()
	rng := rand.New(rand.NewPCG(l.seed, 0x6b65726e))
	var x, out *dense.Matrix
	for _, k := range []int{5, 3} {
		tag := fmt.Sprintf("k%d", k)
		x, out = randomDense(g.Adj.N, k, rng), dense.New(g.Adj.N, k)
		fast := timeMedian(kernelReps, func() { g.Adj.MulDenseInto(out, x) })
		l.m["sparse.spmm_"+tag+"_ms"] = ms(fast)
		l.m["sparse.spmm_"+tag+"_gbps"] = spmmBytes(g.Adj, k) / fast.Seconds() / 1e9
	}
	const k = 3
	x32, out32 := dense.New32(g.Adj.N, k), dense.New32(g.Adj.N, k)
	x32.FillFrom(x)
	l.m["sparse.spmm_simple_k3_ms"] = ms(timeMedian(kernelReps, func() { g.Adj.MulDenseIntoSimple(out, x) }))
	l.m["sparse.spmm_f32_k3_ms"] = ms(timeMedian(kernelReps, func() { g.Adj.MulDenseInto32(out32, x32) }))
	l.m["sparse.triad_gbps"] = triadGBps()
	l.m["sparse.spmm_roofline_share"] = l.m["sparse.spmm_k3_gbps"] / l.m["sparse.triad_gbps"]
	l.m["sparse.spectral_radius_ms"] = ms(timeMedian(3, func() { g.Adj.SpectralRadius(50) })) // 50 = LinBP's SpectralIters default
	l.m["delta.set_edge_us"] = setEdgeMicros(g.Adj, rng)
	return nil
}

// pipelineLadder runs the facade's pipeline step by step — the same calls
// with the same options factorgraph.Classify makes — with a span around
// each, on the k = 3 and the k = 5 graph.
func (l *ladder) pipelineLadder(dMain, dSide *graphData) error {
	const wl = "cold_pipeline"
	rng := newReqGen(l.seed, wl).rng // the workload's own shuffle of each sample pool
	var facadeNS, stepsNS []float64  // per main op: factorgraph.Classify, and the same steps called one by one
	for _, part := range []struct {
		d           *graphData
		kind        string
		pool, count int
	}{{dMain, "main", l.sz.pipelineMain.perBlock, l.sz.ladderPipelineMain}, {dSide, "side", l.sz.pipelineSide.perBlock, l.sz.ladderPipelineSide}} {
		d, order := part.d, rng.Perm(part.pool)
		g, err := factorgraph.NewGraph(d.spec.n, d.edges)
		if err != nil {
			return err
		}
		want, _, err := factorgraph.Classify(g, d.seeds, d.spec.k) // warm-up, and the reference the stepwise run must equal
		if err != nil {
			return err
		}
		for i := -1; i < part.count; i++ {
			seeds := d.seeds
			if i >= 0 {
				if seeds, err = factorgraph.SampleSeeds(d.truth, d.spec.k, d.spec.f, sampleSeed(order[i])); err != nil {
					return err
				}
				l.attempted++
			}
			op := fmt.Sprintf("%s/%s/%d", wl, part.kind, i)
			t0 := time.Now()
			sums, err := core.Summarize(g.Adj, seeds, d.spec.k, core.SummaryOptions{LMax: 5, NonBacktracking: true, Variant: core.Variant1})
			if err != nil {
				return err
			}
			t1 := time.Now()
			h, err := core.EstimateDCE(sums, core.DCEOptions{Lambda: 10, Restarts: 10})
			if err != nil {
				return err
			}
			t2 := time.Now()
			x, err := labels.Matrix(seeds, d.spec.k)
			if err != nil {
				return err
			}
			t3 := time.Now()
			pred, err := propagation.LinBPLabels(g.Adj, x, h, propagation.DefaultLinBPOptions())
			if err != nil {
				return err
			}
			t4 := time.Now()
			if i < 0 {
				// Not a sample: the stepwise pipeline on the warm-up
				// seeds must label exactly as the facade did.
				for node := range want {
					if pred[node] != want[node] {
						l.problem("stepwise pipeline on %s differs from factorgraph.Classify at node %d", d.spec.name, node)
						break
					}
				}
				continue
			}
			// The facade's own call on the same seeds, back to back with the
			// steps it is made of: whatever the host did to one it did to
			// the other, so the steps can be summed against the op.
			if _, _, err := factorgraph.Classify(g, seeds, d.spec.k); err != nil {
				return err
			}
			if part.kind == "main" {
				facadeNS = append(facadeNS, float64(time.Since(t4)))
				stepsNS = append(stepsNS, float64(t4.Sub(t0)))
			}
			l.tr.add(op, spanPipeline, "", t0, t4.Sub(t0))
			l.tr.add(op, spanSummarize, spanPipeline, t0, t1.Sub(t0))
			l.tr.add(op, spanOptimize, spanPipeline, t1, t2.Sub(t1))
			l.tr.add(op, spanLabels, spanPipeline, t2, t3.Sub(t2))
			l.tr.add(op, spanLinBP, spanPipeline, t3, t4.Sub(t3))
		}
	}
	l.info["cold_pipeline_steps_over_facade"] = median(stepsNS) / median(facadeNS)
	self := func(kind, name string) float64 { return median(selfByName(l.tr.spans, wl+"/"+kind+"/")[name]) }
	l.m["core.summarize_ms"] = self("main", spanSummarize) / 1e6
	l.m["core.optimize_ms"] = self("main", spanOptimize) / 1e6
	l.m["propagation.linbp_ms"] = self("main", spanLinBP) / 1e6
	l.m["core.summarize_k5_ms"] = self("side", spanSummarize) / 1e6
	l.m["core.optimize_k5_ms"] = self("side", spanOptimize) / 1e6
	l.m["propagation.linbp_k5_ms"] = self("side", spanLinBP) / 1e6
	m := float64(len(dMain.edges))
	l.m["core.summarize_ns_per_edge_l"] = self("main", spanSummarize) / (m * 5)    // ℓmax = 5
	l.m["propagation.linbp_ns_per_edge_iter"] = self("main", spanLinBP) / (m * 10) // 10 iterations
	estimate := self("main", spanSummarize) + self("main", spanOptimize)
	l.m["core.estimate_share"] = estimate / (estimate + self("main", spanLabels) + self("main", spanLinBP) + self("main", spanPipeline))
	return nil
}

// threeRigs builds the http-, serve- and engine-depth replicas of a
// mutating workload from one graph, one seed vector and one H, and replays
// warm on each at its own depth.
func (l *ladder) threeRigs(wl string, d *graphData, warm []*request) (rigs [3]*rig, lanes []lane, cleanup func(), err error) {
	g, err := factorgraph.NewGraph(d.spec.n, d.edges)
	if err != nil {
		return rigs, nil, nil, err
	}
	est, err := factorgraph.EstimateDCEr(g, d.seeds, d.spec.k)
	if err != nil {
		return rigs, nil, nil, err
	}
	var closers []func()
	cleanup = func() {
		for _, c := range closers {
			c()
		}
	}
	for depth, name := range []string{spanHTTP, spanServe, spanEngine} {
		rg, err := newRig(d.spec.n, d.edges, d.seeds, d.spec.k, est.H, depth == 0)
		if err != nil {
			cleanup()
			return rigs, nil, nil, err
		}
		closers = append(closers, rg.close)
		rigs[depth] = rg
		var is issuer
		switch depth {
		case 0:
			hc := newHTTPIssuer(rg.base)
			closers = append(closers, hc.close)
			is = hc
		case 1:
			is = &serveIssuer{srv: rg.srv}
		case 2:
			is = engineIssuer{rg.eng}
		}
		l.replay(lane{name, is, nil}, wl, warm)
		lanes = append(lanes, lane{name, is, l.tr})
	}
	l.info[wl+"_schedule"] = scheduleOf(rigs[2].eng)
	return rigs, lanes, cleanup, nil
}

// mixedLadder replays the head of serve_mixed's sequence on three engines.
func (l *ladder) mixedLadder(d *graphData) error {
	const wl = "serve_mixed"
	l.checker = checker{d.spec.n, d.spec.k}
	g := newReqGen(l.seed, "ladder/"+wl)
	model := newLabelModel(d, l.sz.mixedPatches.perBlock/whatIfEvery)
	warm := []*request{g.point(d.spec.n), g.patch(model), g.whatIf(model)}
	model.next = 0 // as the workload: the warm-up what-if is not part of a pass
	var reqs []*request
	for i := 1; i <= l.sz.ladderPatches; i++ {
		reqs = append(reqs, g.patch(model))
		if i%whatIfEvery == 0 {
			reqs = append(reqs, g.whatIf(model))
		}
	}
	rigs, lanes, cleanup, err := l.threeRigs(wl, d, warm)
	if err != nil {
		return err
	}
	defer cleanup()
	runtime.GC()
	engine := l.replayInterleaved(lanes, wl, reqs)[2]
	l.nest(wl, reqs, engine)

	l.m["serve.patch_self_us"] = l.medianSelf(wl, opPatch, spanServe) / 1e3
	l.m["engine.patch_self_ms"] = l.medianSelf(wl, opPatch, spanEngine) / 1e6
	l.m["engine.patch_lock_wait_ms"] = l.medianSelf(wl, opPatch, spanLockWait) / 1e6
	l.m["residual.patch_flush_ms"] = l.medianSelf(wl, opPatch, spanFlush) / 1e6
	l.m["residual.patch_pushes"] = median(pick(engine, reqs, opPatch, func(o outcome) float64 { return float64(o.pushes) }))
	l.m["residual.patch_edges"] = median(pick(engine, reqs, opPatch, func(o outcome) float64 { return float64(o.edges) }))
	var fell, flushNS, edges float64
	for i, o := range engine {
		if reqs[i].kind != opPatch {
			continue
		}
		if o.fellBack {
			fell++
		}
		flushNS += float64(o.flush)
		edges += float64(o.edges)
	}
	l.m["residual.patch_fellback_share"] = fell / float64(l.sz.ladderPatches)
	l.m["exec.ns_per_edge"] = flushNS / edges
	l.m["residual.whatif_ms"] = l.medianSelf(wl, opWhatIf, spanEngine) / 1e6
	l.m["residual.whatif_pushes"] = median(pick(engine, reqs, opWhatIf, func(o outcome) float64 { return float64(o.pushes) }))
	l.m["residual.whatif_cloned_rows"] = median(pick(engine, reqs, opWhatIf, func(o outcome) float64 { return float64(o.cloned) }))

	// The block ends on a what-if; asking it again with the same extra
	// seeds and no patch in between is the overlay cache's hit path —
	// when the cache admitted the frontier. It refuses frontiers above
	// 8192 cloned rows, so whether the repeat hit is recorded beside the
	// time rather than assumed.
	again := lane{spanEngine, lanes[2].is, nil}
	var repeatNS []float64
	hit := true
	for i := 0; i < 5; i++ {
		o := l.replay(again, wl, reqs[len(reqs)-1:])[0]
		hit = hit && o.cached
		repeatNS = append(repeatNS, float64(o.wall))
	}
	l.m["residual.whatif_cached_us"] = median(repeatNS) / 1e3
	l.info["whatif_repeat_cache_hit"] = hit

	// One dense LinBP on the same graph and H: a patch flush that costs
	// more than this lost to simply re-solving.
	eng := rigs[2].eng
	x, err := labels.Matrix(model.seeds, d.spec.k)
	if err != nil {
		return err
	}
	adj, h := eng.Graph().Adj, eng.Estimate().H
	var linbpErr error
	denseSolve := timeMedian(3, func() {
		if _, err := propagation.LinBP(adj, x, h, propagation.DefaultLinBPOptions()); err != nil {
			linbpErr = err
		}
	})
	if linbpErr != nil {
		return linbpErr
	}
	l.m["residual.flush_over_dense"] = l.m["residual.patch_flush_ms"] / ms(denseSolve)

	start := time.Now()
	if _, err := eng.Reestimate(); err != nil {
		return err
	}
	l.m["core.reestimate_ms"] = ms(time.Since(start))
	return nil
}

// mutateLadder replays the head of mutate_stream's batch sequence on three
// engines, each with a paced reader at its own depth beside the writer.
func (l *ladder) mutateLadder(d *graphData) error {
	const wl = "mutate_stream"
	l.checker = checker{d.spec.n, d.spec.k}
	g := newReqGen(l.seed, "ladder/"+wl)
	model := newEdgeModel(d)
	warm := []*request{g.point(d.spec.n), g.backlog(model)}
	reqs := make([]*request, l.sz.ladderBatches)
	for i := range reqs {
		reqs[i] = g.mutate(model)
	}
	reads := make([]*request, readerRequests)
	for i := range reads {
		reads[i] = g.point(d.spec.n)
	}
	rigs, lanes, cleanup, err := l.threeRigs(wl, d, warm)
	if err != nil {
		return err
	}
	defer cleanup()
	// A reader needs its own issuer: issuers keep per-request buffers.
	hr := newHTTPIssuer(rigs[0].base)
	defer hr.close()
	readers := [3]issuer{hr, &serveIssuer{srv: rigs[1].srv}, engineIssuer{rigs[2].eng}}
	l.replay(lane{spanHTTP, hr, nil}, wl, reads[:1]) // connect

	// Depth by depth, not interleaved: each depth's writer needs its own
	// reader beside it, and three readers at once would be a different load.
	var engine []outcome
	for depth, ln := range lanes {
		runtime.GC()
		phase := time.Now()
		stop := make(chan struct{})
		var readTally tally
		var paced []pacedRead
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			paced = l.pacedReads(readers[depth], reads, readerRate, phase, stop, &readTally)
		}()
		engine = l.replay(ln, wl, reqs)
		close(stop)
		wg.Wait()
		l.merge(&readTally)
		var lat, late []float64
		for _, rd := range paced {
			lat, late = append(lat, rd.ms), append(late, rd.late)
		}
		switch ln.name {
		case spanHTTP:
			l.m["bench.reader_late_p99_ms"] = percentile(sorted(late), 99)
		case spanEngine:
			l.m["engine.read_beside_write_p99_ms"] = percentile(sorted(lat), 99)
			l.info["read_beside_write_samples"] = len(lat)
		}
	}
	l.nest(wl, reqs, engine)

	l.m["serve.mutate_self_us"] = l.medianSelf(wl, opMutate, spanServe) / 1e3
	l.m["engine.mutate_self_ms"] = l.medianSelf(wl, opMutate, spanEngine) / 1e6
	l.m["engine.mutate_lock_wait_ms"] = l.medianSelf(wl, opMutate, spanLockWait) / 1e6
	l.m["delta.mutate_flush_ms"] = l.medianSelf(wl, opMutate, spanFlush) / 1e6
	maxFrac := 0.0
	for _, o := range engine {
		maxFrac = max(maxFrac, o.overlayFrac)
	}
	l.m["delta.overlay_fraction_max"] = maxFrac

	eng := rigs[2].eng
	start := time.Now()
	meta, err := eng.CompactTopology()
	if err != nil {
		return err
	}
	if !meta.Compacted {
		l.problem("forced compaction after %d batches compacted nothing", len(reqs))
	}
	l.m["delta.compact_ms"] = ms(time.Since(start))
	l.m["delta.compactions"] = float64(eng.TopoStats().Compactions)
	return nil
}
