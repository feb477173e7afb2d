package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"factorgraph"
	"factorgraph/internal/core"
)

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"cold_pipeline", "serve_read", "serve_mixed", "mutate_stream"}

// readerRate is mutate_stream's open-loop reader pace, requests per second.
// A read costs 0.15 ms and a batch 4 ms, and on one processor a read gets
// its turn when the batch in flight yields: at 50/s the reader's queue stays
// empty (bench.reader_late_p99_ms), at 200/s it grew for the whole phase.
const readerRate = 50

// dcerGoldTolerance is how far the pipeline's accuracy may sit from
// propagating with the gold-standard H measured on the full labeling.
const dcerGoldTolerance = 0.02

// result is one untraced run of one workload. All times are clock times.
type result struct {
	workload string
	graphs   []graphSpec
	seed     uint64

	setupS     []float64     // one value per set-up repetition
	mainMS     [][]float64   // main-op latencies the metrics are read from, per block
	sideMS     [][]float64   // side-op latencies, likewise
	mainOps    int           // main ops measured
	sideOps    int           // side ops measured
	throughput float64       // main ops per second in the main phase's best block
	accuracy   float64       // micro-accuracy on unlabeled nodes
	liveHeapMB float64       // HeapAlloc after GC, engine and server alive
	measured   time.Duration // wall time of the measured phases

	tally
	info map[string]any // printed with the results: tuned schedule, compactions, …
}

func newResult(name string, seed uint64, graphs ...graphSpec) *result {
	return &result{workload: name, seed: seed, graphs: graphs, info: map[string]any{}}
}

// setUp times one repetition of a workload's set-up.
func (r *result) setUp(build func() error) error {
	start := time.Now()
	if err := build(); err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return nil
}

// takeMain reads the main-op metrics out of a phase; keep selects the main
// ops (nil: all).
func (r *result) takeMain(p *phase, keep func(client, i int) bool) {
	r.mainMS = p.latencies(keep)
	r.mainOps = samples(r.mainMS)
	r.throughput = p.bestRate(keep)
}

// takeSide takes the side op's latencies, per block.
func (r *result) takeSide(blocks [][]float64) {
	r.sideMS, r.sideOps = blocks, samples(blocks)
}

// liveHeap reads HeapAlloc after two collections — the second empties the
// sync.Pool victim caches the first one filled — while keep (engine,
// server) is still referenced.
func liveHeap(keep ...any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

// scheduleOf renders the drain schedule exec.Tune pinned for eng. It is
// measured per process, so two runs of one commit can land on different
// schedules; printing it lets a bimodal incremental workload be recognised.
func scheduleOf(eng *factorgraph.Engine) string {
	h := eng.NumericHealth()
	return fmt.Sprintf("delta_divisor=%d min_pull_workers=%d tuned=%v", h.TunedDeltaDivisor, h.TunedMinPullWorkers, h.ScheduleTuned)
}

func runWorkload(name string, sz sizes, seed uint64) (*result, error) {
	switch name {
	case "cold_pipeline":
		return runColdPipeline(sz, seed)
	case "serve_read":
		return runServeRead(sz, seed)
	case "serve_mixed":
		return runServeMixed(sz, seed)
	case "mutate_stream":
		return runMutateStream(sz, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sampleSeed is the seed of the i-th seed sample of a pipeline graph's fixed
// pool.
func sampleSeed(i int) uint64 { return graphSeed*1_000_003 + uint64(i) + 1 }

// runColdPipeline times factorgraph.Classify — DCEr estimation then LinBP —
// from scratch on its own stratified seed sample per op: k = 3 on the
// uniform graph (main) and, after it, k = 5 on the power-law graph (side).
// The samples are a fixed pool and a block is one pass over it, in an order
// -seed shuffles: the estimator's optimisation costs 4 to 45 ms depending on
// the sample, in steps of a restart, so the median over a fresh draw per run
// moved by 10 % through the draw alone, and two blocks of different samples
// could not be compared.
func runColdPipeline(sz sizes, seed uint64) (*result, error) {
	r := newResult("cold_pipeline", seed, sz.uni, sz.pow5)
	dMain, err := generate(sz.uni, graphSeed)
	if err != nil {
		return nil, err
	}
	dSide, err := generate(sz.pow5, graphSeed)
	if err != nil {
		return nil, err
	}
	rng := newReqGen(seed, r.workload).rng

	// Set-up: build both graphs and run one pipeline on each; the first
	// call per graph pays the ρ(W) power iteration its CSR then caches.
	var gMain, gSide *factorgraph.Graph
	for rep := 0; rep < sz.setupReps; rep++ {
		err := r.setUp(func() (err error) {
			if gMain, err = factorgraph.NewGraph(dMain.spec.n, dMain.edges); err != nil {
				return err
			}
			if gSide, err = factorgraph.NewGraph(dSide.spec.n, dSide.edges); err != nil {
				return err
			}
			if _, _, err = factorgraph.Classify(gMain, dMain.seeds, dMain.spec.k); err != nil {
				return fmt.Errorf("warm-up pipeline on %s: %w", dMain.spec.name, err)
			}
			_, _, err = factorgraph.Classify(gSide, dSide.seeds, dSide.spec.k)
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// pipeline classifies g's pool once per block: each op draws its sample
	// (untimed), then runs and checks the pipeline. It returns the phase,
	// each sample's fastest run and the mean accuracy.
	//
	// The ops of a pass differ (that is what its p90 is about) and the
	// passes do not, so the latency metrics are read over the samples, each
	// at its fastest of the passes, not over the samples of the quietest
	// pass: a pass lasts seconds, longer than the host stays quiet, but
	// every sample meets a quiet moment in one pass or another.
	pipeline := func(g *factorgraph.Graph, d *graphData, l load) (p *phase, fastest []float64, meanAcc float64) {
		var order []int
		for b := 0; b < l.blocks; b++ {
			order = append(order, rng.Perm(l.perBlock)...)
		}
		runtime.GC()
		var seeds []int
		p = runPhase(l, 1, func(_, i int) bool {
			r.attempted++
			pred, est, err := factorgraph.Classify(g, seeds, d.spec.k)
			if err != nil {
				r.fail("pipeline on %s op %d: %v", d.spec.name, i, err)
				return false
			}
			meanAcc += factorgraph.Accuracy(pred, d.truth, seeds) / float64(l.ops())
			if !core.IsSymmetricDoublyStochastic(est.H, 1e-6) {
				r.fail("pipeline on %s op %d: estimated H is not symmetric doubly stochastic", d.spec.name, i)
				return false
			}
			return true
		}, func(_, i int) {
			var err error
			if seeds, err = factorgraph.SampleSeeds(d.truth, d.spec.k, d.spec.f, sampleSeed(order[i])); err != nil {
				panic(err) // the same call succeeded when the graph was generated
			}
		})
		best := make(map[int]float64, l.perBlock)
		for i, o := range p.ops[0] {
			if ms, seen := best[order[i]]; o.ok && (!seen || o.ms < ms) {
				best[order[i]] = o.ms
			}
		}
		for _, ms := range best {
			fastest = append(fastest, ms)
		}
		return p, fastest, meanAcc
	}

	main, mainFastest, acc := pipeline(gMain, dMain, sz.pipelineMain)
	side, sideFastest, _ := pipeline(gSide, dSide, sz.pipelineSide)
	r.mainMS, r.sideMS = [][]float64{mainFastest}, [][]float64{sideFastest}
	r.mainOps, r.sideOps = samples(main.latencies(nil)), samples(side.latencies(nil))
	r.throughput = main.bestRate(nil)
	r.measured, r.accuracy = main.elapsed+side.elapsed, acc
	r.liveHeapMB = liveHeap(gMain, gSide)

	// DCEr must label about as well as knowing H: propagate the graph's
	// own seed labels with the estimated and with the gold-standard H and
	// compare accuracies.
	pred, _, err := factorgraph.Classify(gMain, dMain.seeds, dMain.spec.k)
	if err != nil {
		return nil, err
	}
	gold, err := factorgraph.GoldStandard(gMain, dMain.truth, dMain.spec.k)
	if err != nil {
		return nil, err
	}
	goldPred, err := factorgraph.Propagate(gMain, dMain.seeds, dMain.spec.k, gold)
	if err != nil {
		return nil, err
	}
	dcerAcc, goldAcc := factorgraph.Accuracy(pred, dMain.truth, dMain.seeds), factorgraph.Accuracy(goldPred, dMain.truth, dMain.seeds)
	r.info["gold_standard_accuracy"] = goldAcc
	r.info["dcer_accuracy"] = dcerAcc
	if math.Abs(goldAcc-dcerAcc) > dcerGoldTolerance {
		r.problem("DCEr accuracy %.4f is not within %.2f of gold-standard-H accuracy %.4f", dcerAcc, dcerGoldTolerance, goldAcc)
	}
	return r, nil
}

// checker sends requests against a graph of n nodes and k classes and
// checks the replies.
type checker struct{ n, k int }

// served is a warmed-up rig with its connected clients.
type served struct {
	*rig
	checker
	clients []issuer
}

func (s *served) close() {
	for _, c := range s.clients {
		if h, ok := c.(*httpIssuer); ok {
			h.close()
		}
	}
	s.rig.close()
}

// send issues one request and checks its reply; a non-200 status, a short
// response or a failed check is a failed operation. The outcome's body is
// only valid until the issuer's next request.
func (c checker) send(is issuer, rq *request, t *tally) (outcome, bool) {
	t.attempted++
	o, err := is.issue(rq)
	if err != nil {
		t.fail("%s: %v", rq.kind, err)
		return outcome{}, false
	}
	if p := checkReply(rq, o, c.n, c.k); p != "" {
		t.fail("%s", p)
		return o, false
	}
	return o, true
}

// setUpServed builds the rig reps times and returns the last one, with
// nClients connected clients, after replaying warm: the first op of each
// kind pays one-time costs (connection set-up, residual initialisation, the
// first snapshot) that are set-up, not samples. warm[i] is sent by client
// i mod nClients. setup_s covers everything from the edge list to the last
// warm-up reply.
func setUpServed(d *graphData, reps, nClients int, warm []*request, r *result) (*served, error) {
	var s *served
	for rep := 0; rep < reps; rep++ {
		if s != nil {
			s.close()
		}
		err := r.setUp(func() error {
			rg, err := newRig(d.spec.n, d.edges, d.seeds, d.spec.k, nil, true)
			if err != nil {
				return err
			}
			s = &served{rig: rg, checker: checker{d.spec.n, d.spec.k}}
			for c := 0; c < nClients; c++ {
				s.clients = append(s.clients, newHTTPIssuer(rg.base))
			}
			for i, rq := range warm {
				if _, ok := s.send(s.clients[i%nClients], rq, &r.tally); !ok {
					s.close()
					return fmt.Errorf("warm-up %s failed: %v", rq.kind, r.problems)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	r.info["tuned_schedule"] = scheduleOf(s.eng)
	return s, nil
}

// closedLoops runs one closed loop per client as one phase: client c sends
// lists[c], l.ops() requests, in order on its own connection, the next
// request leaving only when the previous reply is fully read.
func (s *served) closedLoops(r *result, l load, lists [][]*request) *phase {
	tallies := make([]tally, len(lists))
	runtime.GC()
	p := runPhase(l, len(lists), func(c, i int) bool {
		_, ok := s.send(s.clients[c], lists[c][i], &tallies[c])
		return ok
	}, nil)
	for c := range tallies {
		r.merge(&tallies[c])
	}
	return p
}

// readClients is how many closed-loop clients serve_read's main phase runs,
// each on its own connection: two, so that every request meets one other
// at the server's registry, engine lock and processor.
const readClients = 2

// runServeRead times point classifies from concurrent closed-loop clients
// over loopback HTTP, then full-graph NDJSON streams from one client.
func runServeRead(sz sizes, seed uint64) (*result, error) {
	r := newResult("serve_read", seed, sz.uni)
	d, err := generate(sz.uni, graphSeed)
	if err != nil {
		return nil, err
	}
	g := newReqGen(seed, r.workload)
	nClients := readClients
	warm := make([]*request, 0, nClients+1)
	for c := 0; c < nClients; c++ {
		warm = append(warm, g.point(d.spec.n))
	}
	warm = append(warm, g.stream())
	points := make([][]*request, nClients)
	for c := range points {
		for i := 0; i < sz.readPoints.ops(); i++ {
			points[c] = append(points[c], g.point(d.spec.n))
		}
	}
	streams := make([]*request, sz.readStreams.ops())
	for i := range streams {
		streams[i] = g.stream()
	}

	s, err := setUpServed(d, sz.setupReps, nClients, warm, r)
	if err != nil {
		return nil, err
	}
	defer s.close()

	main := s.closedLoops(r, sz.readPoints, points)
	side := s.closedLoops(r, sz.readStreams, [][]*request{streams})
	r.takeMain(main, nil)
	r.takeSide(side.latencies(nil))
	r.measured = main.elapsed + side.elapsed

	r.liveHeapMB = liveHeap(s)
	if labels, err := finalLabels(s.clients[0], g, d.spec.n, d.spec.k, &r.tally); err == nil {
		r.accuracy = factorgraph.Accuracy(labels, d.truth, d.seeds)
	}
	return r, nil
}

// runServeMixed times label patches with a what-if classify after every
// whatIfEvery-th, one client, strictly sequential.
func runServeMixed(sz sizes, seed uint64) (*result, error) {
	r := newResult("serve_mixed", seed, sz.pow)
	d, err := generate(sz.pow, graphSeed)
	if err != nil {
		return nil, err
	}
	g := newReqGen(seed, r.workload)
	model := newLabelModel(d, sz.mixedPatches.perBlock/whatIfEvery)
	warm := []*request{g.point(d.spec.n), g.patch(model), g.whatIf(model)}
	model.next = 0 // the warm-up what-if is not part of a pass
	l := sz.mixedPatches
	l.perBlock += l.perBlock / whatIfEvery // a block is its patches and their what-ifs
	var seq []*request
	for i := 1; i <= sz.mixedPatches.ops(); i++ {
		seq = append(seq, g.patch(model))
		if i%whatIfEvery == 0 {
			seq = append(seq, g.whatIf(model))
		}
	}

	s, err := setUpServed(d, sz.setupReps, 1, warm, r)
	if err != nil {
		return nil, err
	}
	defer s.close()

	p := s.closedLoops(r, l, [][]*request{seq})
	r.takeMain(p, func(_, i int) bool { return seq[i].kind == opPatch })
	r.takeSide(p.latencies(func(_, i int) bool { return seq[i].kind == opWhatIf }))
	r.measured = p.elapsed

	r.liveHeapMB = liveHeap(s)
	st := s.eng.Stats()
	r.info["residual_fallbacks"] = st.ResidualFallbacks
	r.info["overlay_cache_hits"] = st.OverlayCacheHits
	if labels, err := finalLabels(s.clients[0], g, d.spec.n, d.spec.k, &r.tally); err == nil {
		r.accuracy = factorgraph.Accuracy(labels, d.truth, model.seeds)
		checkAgainstCold(d.spec.n, d.edges, model.seeds, d.spec.k, s.eng.Estimate().H, labels, &r.tally)
	}
	return r, nil
}

// pacedRead is one open-loop read: how late it left, and how long after its
// due time the reply was complete.
type pacedRead struct {
	due      time.Time
	ms, late float64
}

// pacedReads sends reqs (cycled) at rate per second until stop is closed,
// open loop: request i is due at start + i/rate whether or not earlier ones
// have returned, and its latency is timed from when it was due.
func (c checker) pacedReads(is issuer, reqs []*request, rate float64, start time.Time, stop <-chan struct{}, t *tally) []pacedRead {
	var out []pacedRead
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			timer.Stop()
			return out
		case <-timer.C:
		}
		sent := time.Now()
		if _, ok := c.send(is, reqs[i%len(reqs)], t); ok {
			out = append(out, pacedRead{due: due, ms: ms(time.Since(due)), late: ms(sent.Sub(due))})
		}
	}
}

// readerRequests is how many distinct point queries the paced reader
// cycles through.
const readerRequests = 1024

// runMutateStream times edge-mutation batches from a closed-loop writer
// while a second client reads at a fixed pace beside it.
func runMutateStream(sz sizes, seed uint64) (*result, error) {
	r := newResult("mutate_stream", seed, sz.pow)
	d, err := generate(sz.pow, graphSeed)
	if err != nil {
		return nil, err
	}
	g := newReqGen(seed, r.workload)
	model := newEdgeModel(d)
	warm := []*request{g.point(d.spec.n), g.point(d.spec.n), g.backlog(model)}
	batches := make([]*request, sz.mutateBatches.ops())
	for i := range batches {
		batches[i] = g.mutate(model)
	}
	reads := make([]*request, readerRequests)
	for i := range reads {
		reads[i] = g.point(d.spec.n)
	}

	s, err := setUpServed(d, sz.setupReps, 2, warm, r)
	if err != nil {
		return nil, err
	}
	defer s.close()
	writer, reader := s.clients[0], s.clients[1]

	stop := make(chan struct{})
	var readTally tally
	var paced []pacedRead
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paced = s.pacedReads(reader, reads, readerRate, time.Now(), stop, &readTally)
	}()
	p := s.closedLoops(r, sz.mutateBatches, [][]*request{batches})
	close(stop)
	wg.Wait()
	r.merge(&readTally)
	r.takeMain(p, nil)
	// A read belongs to the block that was running when it was due.
	var late []float64
	byBlock := make([][]float64, p.blocks)
	for _, rd := range paced {
		if b := p.blockOf(rd.due); b >= 0 {
			byBlock[b] = append(byBlock[b], rd.ms)
			late = append(late, rd.late)
		}
	}
	r.takeSide(byBlock)
	r.measured = p.elapsed
	r.info["reader_late_p99_ms"] = percentile(sorted(late), 99)
	r.info["compactions"] = s.eng.TopoStats().Compactions

	// End on a forced compaction so the served state is a canonical CSR:
	// the live heap is read in that state (how full the overlay is when the
	// sequence happens to end is the seed's doing), and the labels are
	// compared with a cold build of the model's final edge list.
	s.send(writer, g.compact(), &r.tally)
	r.liveHeapMB = liveHeap(s)
	if labels, err := finalLabels(writer, g, d.spec.n, d.spec.k, &r.tally); err == nil {
		r.accuracy = factorgraph.Accuracy(labels, d.truth, d.seeds)
		checkAgainstCold(d.spec.n, model.edges(), d.seeds, d.spec.k, s.eng.Estimate().H, labels, &r.tally)
	}
	return r, nil
}
