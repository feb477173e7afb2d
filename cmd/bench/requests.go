package main

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"factorgraph"
	"factorgraph/internal/serve"
)

// Workload shape constants. They are part of the benchmark's definition:
// changing one changes what every committed number means.
const (
	graphName = "bench" // registry name the rig serves its graph under

	pointNodes    = 32 // nodes per point classify
	pointTopK     = 2
	patchNodes    = 4 // labels set per PATCH /labels
	whatIfEvery   = 6 // every 6th patch is followed by one what-if classify
	whatIfNodes   = 8
	mutateEdges   = 4    // per PATCH /edges: this many new random edges, and as many removals of the oldest added ones
	mutateBacklog = 1200 // edges the warm-up batch adds and removes none of
)

// opKind names what a request does; checks and the engine-depth replay
// switch on it.
type opKind int

const (
	opPoint opKind = iota
	opStream
	opPatch
	opWhatIf
	opMutate
	opCompact
)

func (k opKind) String() string {
	return [...]string{"point", "stream", "patch", "whatif", "mutate", "compact"}[k]
}

// request is one pre-encoded operation. The wire form (method, path, body,
// traceparent) is what the http and serve depths send; the typed form is
// what the engine depth passes to the Engine method directly, so all three
// depths perform the same work.
type request struct {
	kind        opKind
	method      string
	path        string
	body        []byte
	traceparent string
	keep        bool // keep the reply body for the checks (streams are only counted)

	query factorgraph.Query          // opPoint, opStream, opWhatIf
	set   map[int]int                // opPatch
	muts  []factorgraph.EdgeMutation // opMutate
}

// reqGen builds request lists from one seeded stream. Every random choice
// of a workload comes from it, in a fixed order, so one seed gives one
// byte-identical list.
type reqGen struct {
	rng *rand.Rand
}

func newReqGen(seed uint64, workload string) *reqGen {
	var stream uint64
	for _, c := range workload {
		stream = stream*131 + uint64(c)
	}
	return &reqGen{rng: rand.New(rand.NewPCG(seed, stream))}
}

// unsampledTraceparent renders a seeded W3C traceparent with the sampled
// flag clear and a trace id the server's deterministic head sampler never
// keeps: the sampler keeps an id whose low 8 bytes, read big-endian, fall
// under rate×2⁶⁴, so setting their top bit puts every id above any rate
// ≤ 0.5. Without this the default 1 % sampler would capture a random
// handful of requests per run and their tails would differ run to run.
func (g *reqGen) unsampledTraceparent() string {
	var tid [16]byte
	var sid [8]byte
	binary.BigEndian.PutUint64(tid[:8], g.rng.Uint64())
	binary.BigEndian.PutUint64(tid[8:], g.rng.Uint64()|1<<63)
	binary.BigEndian.PutUint64(sid[:], g.rng.Uint64()|1)
	return "00-" + hex.EncodeToString(tid[:]) + "-" + hex.EncodeToString(sid[:]) + "-00"
}

func (g *reqGen) finish(r *request, method, route string, body any) *request {
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding %s body: %v", r.kind, err)) // wire structs of ints cannot fail to encode
	}
	r.method, r.path, r.body = method, "/v1/graphs/"+graphName+"/"+route, b
	r.traceparent = g.unsampledTraceparent()
	r.keep = r.kind != opStream
	return r
}

// point is a classify of pointNodes random nodes with top_k scores.
func (g *reqGen) point(n int) *request {
	nodes := make([]int, pointNodes)
	for i := range nodes {
		nodes[i] = g.rng.IntN(n)
	}
	r := &request{kind: opPoint, query: factorgraph.Query{Nodes: nodes, TopK: pointTopK}}
	return g.finish(r, "POST", "classify", serve.ClassifyRequest{Nodes: nodes, TopK: pointTopK})
}

// stream is the full-graph NDJSON classify.
func (g *reqGen) stream() *request {
	r := &request{kind: opStream, query: factorgraph.Query{TopK: pointTopK}}
	return g.finish(r, "POST", "classify", serve.ClassifyRequest{TopK: pointTopK, Stream: true})
}

// labelModel is the benchmark's own record of which nodes are seeds; the
// final-state check rebuilds a cold engine from it.
type labelModel struct {
	truth []int
	seeds []int // mutated as patches are generated

	// whatIfs is the pool of nodes what-if queries overlay. What a what-if
	// costs is a property of its node — a hub's overlay floods the graph, a
	// leaf's does not — and spans 4× on the power-law graph, so the nodes
	// are part of the fixed data set, like the graph, and every block of
	// serve_mixed asks each of them once: -seed shuffles the order within
	// the pass and picks the nodes each what-if reports on. Patches never
	// label them. A block of patches separates two what-ifs on one node, so
	// the engine's overlay cache, keyed by the label state, always misses.
	whatIfs  []int
	next     int // position in the current pass
	reserved map[int]bool
}

// newLabelModel reserves a pool of whatIfs unlabeled nodes for what-if
// queries, chosen by the graph's own seed.
func newLabelModel(d *graphData, whatIfs int) *labelModel {
	m := &labelModel{truth: d.truth, seeds: append([]int(nil), d.seeds...), reserved: map[int]bool{}}
	fixed := rand.New(rand.NewPCG(graphSeed, 0x77686174))
	for len(m.whatIfs) < whatIfs {
		m.whatIfs = append(m.whatIfs, m.freshNode(fixed))
		m.reserved[m.whatIfs[len(m.whatIfs)-1]] = true
	}
	return m
}

// nextWhatIf is the node the next what-if overlays: the pool, in an order
// rng shuffles anew for every pass.
func (m *labelModel) nextWhatIf(rng *rand.Rand) int {
	if m.next == 0 {
		rng.Shuffle(len(m.whatIfs), func(i, j int) { m.whatIfs[i], m.whatIfs[j] = m.whatIfs[j], m.whatIfs[i] })
	}
	u := m.whatIfs[m.next]
	m.next = (m.next + 1) % len(m.whatIfs)
	return u
}

// freshNode draws a node that is neither a seed nor reserved.
func (m *labelModel) freshNode(rng *rand.Rand) int {
	for {
		u := rng.IntN(len(m.seeds))
		if m.seeds[u] == factorgraph.Unlabeled && !m.reserved[u] {
			return u
		}
	}
}

// patch sets patchNodes unlabeled nodes to their true class.
func (g *reqGen) patch(m *labelModel) *request {
	set := make(map[int]int, patchNodes)
	wire := make(map[string]int, patchNodes)
	for len(set) < patchNodes {
		u := m.freshNode(g.rng)
		m.seeds[u] = m.truth[u]
		set[u] = m.truth[u]
		wire[strconv.Itoa(u)] = m.truth[u]
	}
	return g.finish(&request{kind: opPatch, set: set}, "PATCH", "labels", serve.LabelsPatch{Set: wire})
}

// whatIf classifies whatIfNodes random nodes under one extra seed, the
// pool's next node. The seed labels are not changed: a what-if leaves no
// state behind.
func (g *reqGen) whatIf(m *labelModel) *request {
	nodes := make([]int, whatIfNodes)
	for i := range nodes {
		nodes[i] = g.rng.IntN(len(m.seeds))
	}
	u := m.nextWhatIf(g.rng)
	r := &request{kind: opWhatIf, query: factorgraph.Query{Nodes: nodes, ExtraSeeds: map[int]int{u: m.truth[u]}}}
	return g.finish(r, "POST", "classify", serve.ClassifyRequest{
		Nodes: nodes, ExtraSeeds: map[string]int{strconv.Itoa(u): m.truth[u]},
	})
}

// edgeModel is the benchmark's own record of the live edge set.
type edgeModel struct {
	n     int
	base  [][2]int32
	have  map[uint64]struct{} // every live edge, min<<32|max
	added [][2]int32          // edges upserted by batches and not yet removed, oldest first
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newEdgeModel(d *graphData) *edgeModel {
	m := &edgeModel{n: d.spec.n, base: d.edges, have: make(map[uint64]struct{}, len(d.edges))}
	for _, e := range d.edges {
		m.have[edgeKey(e[0], e[1])] = struct{}{}
	}
	return m
}

// edges is the final edge list: the generated graph plus every added edge
// that was not removed again.
func (m *edgeModel) edges() [][2]int32 {
	return append(append([][2]int32(nil), m.base...), m.added...)
}

// mutate upserts mutateEdges edges the graph does not have and removes the
// mutateEdges oldest edges added by earlier batches, so the graph neither
// grows nor shrinks and every block of batches costs the same (with more
// upserts than removals a batch cost a third more at the end of a run than
// at its start).
func (g *reqGen) mutate(m *edgeModel) *request { return g.mutateBatch(m, mutateEdges, mutateEdges) }

// backlog is the warm-up batch: mutateBacklog upserts and no removal. The
// edges a later batch removes are then ones added mutateBacklog/mutateEdges
// batches before it, which a compaction has long since folded into the CSR:
// a removal is a change to the base graph, not the withdrawal of an overlay
// entry.
func (g *reqGen) backlog(m *edgeModel) *request { return g.mutateBatch(m, mutateBacklog, 0) }

func (g *reqGen) mutateBatch(m *edgeModel, upserts, removes int) *request {
	var patch serve.EdgesPatch
	var muts []factorgraph.EdgeMutation
	for i := 0; i < removes; i++ {
		e := m.added[0]
		m.added = m.added[1:]
		delete(m.have, edgeKey(e[0], e[1]))
		patch.Remove = append(patch.Remove, []int{int(e[0]), int(e[1])})
		muts = append(muts, factorgraph.EdgeMutation{U: int(e[0]), V: int(e[1]), Remove: true})
	}
	for len(patch.Set) < upserts {
		u, v := int32(g.rng.IntN(m.n)), int32(g.rng.IntN(m.n))
		if _, dup := m.have[edgeKey(u, v)]; u == v || dup {
			continue
		}
		m.have[edgeKey(u, v)] = struct{}{}
		m.added = append(m.added, [2]int32{u, v})
		patch.Set = append(patch.Set, []float64{float64(u), float64(v)})
		muts = append(muts, factorgraph.EdgeMutation{U: int(u), V: int(v)})
	}
	return g.finish(&request{kind: opMutate, muts: muts}, "PATCH", "edges", patch)
}

// compact is the {"compact":true} batch that ends every mutation sequence,
// so the final state is a canonical CSR a cold build can be compared with.
func (g *reqGen) compact() *request {
	return g.finish(&request{kind: opCompact}, "PATCH", "edges", serve.EdgesPatch{Compact: true})
}
