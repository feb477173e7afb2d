package delta

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// edgeModel is the reference an overlay epoch is checked against: a node
// count and an undirected weighted edge set.
type edgeModel struct {
	n     int
	edges map[[2]int32]float64
}

func (m edgeModel) clone() edgeModel { return edgeModel{m.n, maps.Clone(m.edges)} }

// csr is the cold canonical build of the model's edge set.
func (m edgeModel) csr(t testing.TB) *sparse.CSR {
	t.Helper()
	var list [][2]int32
	var wts []float64
	allOnes := true
	for e, w := range m.edges {
		list = append(list, e)
		wts = append(wts, w)
		allOnes = allOnes && w == 1
	}
	if allOnes {
		wts = nil
	}
	csr, err := sparse.NewSymmetricFromEdges(m.n, list, wts)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// epoch is one overlay epoch and the model of its edge set.
type epoch struct {
	g *Graph
	m edgeModel
}

// opStream applies a stream of overlay operations to a live epoch and its
// model, keeping older epochs (frozen by Clone) to check later that no
// write reached them.
type opStream struct {
	t        testing.TB
	live     epoch
	retained []epoch
	frozen   *Graph // captured for an asynchronous compaction (Rebase)
}

const maxRetained = 6

func newOpStream(t testing.TB, n int, edges map[[2]int32]float64) *opStream {
	m := edgeModel{n, edges}
	return &opStream{t: t, live: epoch{New(m.csr(t)), m}}
}

// retain freezes the live epoch, continues on a clone of it, and returns
// the frozen one.
func (d *opStream) retain() *Graph {
	frozen := d.live
	frozen.m = frozen.m.clone()
	d.retained = append(d.retained, frozen)
	if len(d.retained) > maxRetained {
		d.retained = d.retained[1:]
	}
	d.live.g = d.live.g.Clone()
	return frozen.g
}

// apply runs one operation chosen by op; a, b and c pick its arguments.
func (d *opStream) apply(op, a, b, c int) {
	t, g, m := d.t, d.live.g, &d.live.m
	u, v := int32(a%m.n), int32(b%m.n)
	switch op % 7 {
	case 0: // upsert, same-weight repeats included
		w := float64(c%4+1) / 2
		old := g.SetEdge(int(u), int(v), w)
		if want := m.edges[key(u, v)]; old != want {
			t.Fatalf("SetEdge(%d,%d) returned %v, model %v", u, v, old, want)
		}
		m.edges[key(u, v)] = w
	case 1: // removal, absent edges included
		old, existed := g.RemoveEdge(int(u), int(v))
		want, ok := m.edges[key(u, v)]
		if existed != ok || old != want {
			t.Fatalf("RemoveEdge(%d,%d) = (%v, %v), model (%v, %v)", u, v, old, existed, want, ok)
		}
		delete(m.edges, key(u, v))
	case 2:
		count := int(c%3) + 1
		if got := g.AddNodes(count); got != m.n+count {
			t.Fatalf("AddNodes(%d) = %d, want %d", count, got, m.n+count)
		}
		m.n += count
	case 3:
		d.retain()
	case 4: // synchronous compaction, in place
		csr := g.Compact()
		if want := m.csr(t); !sameCSR(csr, want) {
			t.Fatalf("Compact differs from a cold build:\n got %v %v %v\nwant %v %v %v", csr.IndPtr, csr.Indices, csr.Data, want.IndPtr, want.Indices, want.Data)
		}
		g.ResetBase(csr)
		d.frozen = nil // a capture from before the reset no longer shares its base
	case 5: // capture an epoch for an asynchronous compaction
		if d.frozen == nil {
			d.frozen = d.retain()
		}
	case 6: // install the captured epoch's compaction under the live one
		if d.frozen != nil {
			d.live.g = g.Rebase(d.frozen, d.frozen.Compact())
			d.frozen = nil
		}
	}
}

// check compares every row of every retained epoch and of the live one
// with its model, and each epoch's counters with a recount.
func (d *opStream) check(step int) {
	t := d.t
	t.Helper()
	for i, e := range append(d.retained, d.live) {
		if e.g.Dim() != e.m.n {
			t.Fatalf("step %d epoch %d: dim %d, model %d", step, i, e.g.Dim(), e.m.n)
		}
		want := e.m.csr(t)
		for u := 0; u < e.m.n; u++ {
			gc, gw := e.g.Row(u)
			wc, ww := want.Row(u)
			if !equalRows(gc, gw, wc, ww) {
				t.Fatalf("step %d epoch %d: row %d = (%v, %v), model (%v, %v)", step, i, u, gc, gw, wc, ww)
			}
		}
		if e.g.NNZ() != want.NNZ() {
			t.Fatalf("step %d epoch %d: nnz %d, model %d", step, i, e.g.NNZ(), want.NNZ())
		}
		if e.g.UndirectedEdges() != len(e.m.edges) {
			t.Fatalf("step %d epoch %d: %d edges, model %d", step, i, e.g.UndirectedEdges(), len(e.m.edges))
		}
		patched, memory, rows := recount(t, e.g)
		if e.g.PatchedEntries() != patched || e.g.MemoryBytes() != memory || e.g.rows != rows {
			t.Fatalf("step %d epoch %d: patched/memory/rows %d/%d/%d, recount %d/%d/%d", step, i,
				e.g.PatchedEntries(), e.g.MemoryBytes(), e.g.rows, patched, memory, rows)
		}
		if e.g.Dirty() != (rows > 0 || e.m.n != e.g.Base().N) {
			t.Fatalf("step %d epoch %d: Dirty %v with %d patched rows", step, i, e.g.Dirty(), rows)
		}
	}
}

// recount walks the row table: stored entries in patched rows, the bytes
// MemoryBytes must report, and the patched-row count.
func recount(t testing.TB, g *Graph) (patched int, memory int64, rows int) {
	t.Helper()
	for c, ch := range g.chunks {
		if ch == nil {
			continue
		}
		memory += chunkBytes
		count := 0
		for _, r := range &ch.rows {
			if r != nil {
				count++
				patched += len(r.cols)
				memory += r.bytes()
			}
		}
		if count != ch.count || count == 0 {
			t.Fatalf("chunk %d holds %d rows, counts %d", c, count, ch.count)
		}
		rows += count
	}
	return patched, memory, rows
}

func sameCSR(a, b *sparse.CSR) bool {
	return a.N == b.N && reflect.DeepEqual(a.IndPtr, b.IndPtr) &&
		reflect.DeepEqual(a.Indices, b.Indices) && reflect.DeepEqual(a.Data, b.Data)
}

// randomEdges draws m distinct unit edges over n nodes.
func randomEdges(rng *rand.Rand, n, m int) map[[2]int32]float64 {
	edges := map[[2]int32]float64{}
	for len(edges) < m {
		edges[key(int32(rng.Intn(n)), int32(rng.Intn(n)))] = 1
	}
	return edges
}

// TestOverlayModel is the model-based overlay test: random upserts (same
// weight included), removals (absent edges included), node additions,
// clones that keep the old epoch, in-place compactions and Rebase of a
// captured epoch. After every step every row of every retained epoch
// equals its model's, and PatchedEntries, NNZ and MemoryBytes equal a
// recount.
func TestOverlayModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 600 nodes span three row-table chunks.
		n := 40 + 280*int(seed%3)
		d := newOpStream(t, n, randomEdges(rng, n, 2*n))
		for step := 0; step < 400; step++ {
			op := rng.Intn(20)
			switch {
			case op < 8:
				op = 0
			case op < 14:
				op = 1
			default:
				op -= 12 // 2..7; 7 wraps to an upsert
			}
			d.apply(op, rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(256))
			d.check(step)
		}
	}
}

// TestNoOpMutationsLeaveOverlayClean: removing an absent edge and
// upserting an edge at the weight it already has change nothing, so they
// must not copy a row into the overlay. On the path 0–1–2–3 both used to
// leave the overlay dirty, with PatchedFraction() at 1/6.
func TestNoOpMutationsLeaveOverlayClean(t *testing.T) {
	path := map[[2]int32]float64{{0, 1}: 1, {1, 2}: 1, {2, 3}: 1}
	g := New(buildCSR(t, 4, path))
	if old, existed := g.RemoveEdge(0, 3); existed || old != 0 {
		t.Fatalf("RemoveEdge(0, 3) = (%v, %v) on a graph without the edge", old, existed)
	}
	if old := g.SetEdge(1, 2, 1); old != 1 {
		t.Fatalf("SetEdge(1, 2, 1) returned %v, want 1", old)
	}
	if g.Dirty() || g.PatchedFraction() != 0 || g.PatchedEntries() != 0 || g.MemoryBytes() != 0 {
		t.Fatalf("no-op mutations dirtied the overlay: Dirty %v, fraction %v, entries %d, bytes %d",
			g.Dirty(), g.PatchedFraction(), g.PatchedEntries(), g.MemoryBytes())
	}
	if g.RhoDeltaBound() != 0 {
		t.Fatalf("no-op mutations moved the drift bound to %v", g.RhoDeltaBound())
	}
	if st := g.Stats(); st.SetEdges != 1 || st.RemovedEdges != 0 {
		t.Fatalf("counters %+v, want one set edge and no removal", st)
	}
	// A weighted row: an upsert at its stored weight is a no-op too.
	g.SetEdge(2, 3, 2.5)
	g = g.Compacted(g.Compact())
	g.SetEdge(3, 2, 2.5)
	if g.Dirty() {
		t.Fatal("a same-weight upsert on a weighted row dirtied the overlay")
	}
}

// FuzzOverlayOps drives the overlay with an arbitrary operation stream —
// four bytes an operation (see opStream.apply) over a small seeded base —
// and requires the final epoch's Compact and MulDenseInto to equal a cold
// NewSymmetricFromEdges build of the model's edge set bit for bit.
func FuzzOverlayOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 1, 0, 3, 0, 3, 0, 0, 0, 0, 4, 5, 1})
	f.Add(int64(2), []byte{5, 0, 0, 0, 0, 1, 2, 1, 2, 9, 9, 2, 6, 0, 0, 0, 1, 1, 2, 0})
	f.Add(int64(3), []byte{3, 0, 0, 0, 0, 7, 8, 0, 4, 0, 0, 0, 1, 7, 8, 0, 0, 7, 8, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		d := newOpStream(t, n, randomEdges(rng, n, rng.Intn(2*n)))
		for i := 0; i+4 <= len(ops); i += 4 {
			d.apply(int(ops[i]), int(ops[i+1]), int(ops[i+2]), int(ops[i+3]))
		}
		d.check(len(ops) / 4)
		g, m := d.live.g, d.live.m
		want := m.csr(t)
		if got := g.Compact(); !sameCSR(got, want) {
			t.Fatalf("Compact differs from a cold build:\n got %v %v %v\nwant %v %v %v", got.IndPtr, got.Indices, got.Data, want.IndPtr, want.Indices, want.Data)
		}
		for _, k := range []int{1, 3} {
			x := dense.New(m.n, k)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			got, ref := dense.New(m.n, k), dense.New(m.n, k)
			g.MulDenseInto(got, x)
			want.MulDenseInto(ref, x)
			for i := range ref.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("k=%d: MulDenseInto[%d] = %v, cold build %v", k, i, got.Data[i], ref.Data[i])
				}
			}
		}
	})
}
