package delta

import (
	"math/rand"
	"reflect"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// buildCSR constructs the canonical CSR of an undirected edge set the same
// way a cold graph build does.
func buildCSR(t *testing.T, n int, edges map[[2]int32]float64) *sparse.CSR {
	t.Helper()
	var list [][2]int32
	var wts []float64
	allOnes := true
	for e, w := range edges {
		list = append(list, e)
		wts = append(wts, w)
		if w != 1 {
			allOnes = false
		}
	}
	if allOnes {
		wts = nil
	}
	csr, err := sparse.NewSymmetricFromEdges(n, list, wts)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

func key(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// TestDeltaFuzzAgainstRebuild drives a random add/remove/upsert/grow
// sequence through the overlay and checks, after every batch, that every
// row matches a cold CSR rebuild of the tracked edge set — including
// NNZ/diag accounting and the undirected edge count.
func TestDeltaFuzzAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 30
	edges := map[[2]int32]float64{}
	for len(edges) < 60 {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		edges[key(u, v)] = 1
	}
	g := New(buildCSR(t, n, edges))

	check := func(step int) {
		t.Helper()
		want := buildCSR(t, n, edges)
		if g.Dim() != n {
			t.Fatalf("step %d: dim %d want %d", step, g.Dim(), n)
		}
		if g.NNZ() != want.NNZ() {
			t.Fatalf("step %d: nnz %d want %d", step, g.NNZ(), want.NNZ())
		}
		for i := 0; i < n; i++ {
			gc, gw := g.Row(i)
			wc, ww := want.Row(i)
			if !equalRows(gc, gw, wc, ww) {
				t.Fatalf("step %d: row %d = (%v, %v), want (%v, %v)", step, i, gc, gw, wc, ww)
			}
		}
		wantM := 0
		for range edges {
			wantM++
		}
		if g.UndirectedEdges() != wantM {
			t.Fatalf("step %d: edges %d want %d", step, g.UndirectedEdges(), wantM)
		}
	}

	for step := 0; step < 200; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // add or upsert
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			w := 1.0
			if rng.Intn(3) == 0 {
				w = 1 + rng.Float64()
			}
			g.SetEdge(int(u), int(v), w)
			edges[key(u, v)] = w
		case op < 7: // remove (possibly absent)
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			_, existed := g.RemoveEdge(int(u), int(v))
			if _, ok := edges[key(u, v)]; ok != existed {
				t.Fatalf("step %d: remove(%d,%d) existed=%v want %v", step, u, v, existed, ok)
			}
			delete(edges, key(u, v))
		case op < 8: // grow
			g.AddNodes(1)
			n++
		case op < 9: // epoch churn: publish + clone (CoW isolation)
			pub := g
			pubRows := snapshotRows(pub)
			g = pub.Clone()
			// Mutate the clone heavily, then verify the published epoch
			// still reads exactly as snapshotted.
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			g.SetEdge(int(u), int(v), 1)
			edges[key(u, v)] = 1
			for node, want := range pubRows {
				gc, gw := pub.Row(node)
				if !equalRows(gc, gw, want.cols, want.wts) {
					t.Fatalf("step %d: published row %d mutated by clone", step, node)
				}
			}
		default: // compact mid-stream
			csr := g.Compact()
			g = g.Compacted(csr)
			if g.Dirty() {
				t.Fatalf("step %d: dirty right after compaction", step)
			}
		}
		check(step)
	}
	if st := g.Stats(); st.SetEdges == 0 || st.RemovedEdges == 0 {
		t.Fatalf("counters not maintained: %+v", st)
	}
}

type rowSnap struct {
	cols []int32
	wts  []float64
}

func snapshotRows(g *Graph) map[int]rowSnap {
	out := make(map[int]rowSnap)
	for i := 0; i < g.Dim(); i++ {
		c, w := g.Row(i)
		out[i] = rowSnap{cols: append([]int32(nil), c...), wts: append([]float64(nil), w...)}
	}
	return out
}

func equalRows(ac []int32, aw []float64, bc []int32, bw []float64) bool {
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
		wa, wb := 1.0, 1.0
		if aw != nil {
			wa = aw[i]
		}
		if bw != nil {
			wb = bw[i]
		}
		if wa != wb {
			return false
		}
	}
	return true
}

// TestDeltaCompactCanonical: the compacted CSR must be bit-identical to a
// cold build of the same edge set — IndPtr, Indices and the implicit
// all-ones collapse — so ρ(W) and ε re-derived from it match a cold engine
// exactly (the parity guarantee rides on this).
func TestDeltaCompactCanonical(t *testing.T) {
	n := 12
	edges := map[[2]int32]float64{
		{0, 1}: 1, {1, 2}: 1, {2, 3}: 1, {4, 4}: 1, {3, 7}: 1,
	}
	g := New(buildCSR(t, n, edges))
	g.SetEdge(5, 6, 1)
	edges[key(5, 6)] = 1
	g.RemoveEdge(1, 2)
	delete(edges, key(1, 2))
	g.AddNodes(2)
	n += 2
	g.SetEdge(12, 0, 1)
	edges[key(12, 0)] = 1

	got := g.Compact()
	want := buildCSR(t, n, edges)
	if !reflect.DeepEqual(got.IndPtr, want.IndPtr) || !reflect.DeepEqual(got.Indices, want.Indices) {
		t.Fatalf("compacted structure differs:\n got %v %v\nwant %v %v", got.IndPtr, got.Indices, want.IndPtr, want.Indices)
	}
	if got.Data != nil || want.Data != nil {
		t.Fatalf("all-ones graph compacted with explicit weights: got %v want %v", got.Data, want.Data)
	}
	if got.SpectralRadius(50) != want.SpectralRadius(50) {
		t.Fatal("spectral radius of compacted CSR differs from cold build")
	}

	// Weighted variant keeps explicit data.
	g.SetEdge(2, 3, 2.5)
	edges[key(2, 3)] = 2.5
	got = g.Compact()
	want = buildCSR(t, n, edges)
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("weighted compacted data differs:\n got %v\nwant %v", got.Data, want.Data)
	}
}

// TestDeltaMulDense: the overlay multiply must agree with the compacted
// CSR's multiply on the same dense operand.
func TestDeltaMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 40
	edges := map[[2]int32]float64{}
	for len(edges) < 80 {
		edges[key(int32(rng.Intn(n)), int32(rng.Intn(n)))] = 1 + rng.Float64()
	}
	g := New(buildCSR(t, n, edges))
	for i := 0; i < 25; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(2) == 0 {
			g.SetEdge(u, v, rng.Float64()*2)
		} else {
			g.RemoveEdge(u, v)
		}
	}
	x := dense.New(n, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	got := dense.New(n, 3)
	g.MulDenseInto(got, x)
	want := dense.New(n, 3)
	g.Compact().MulDenseInto(want, x)
	for i := range got.Data {
		if d := got.Data[i] - want.Data[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("MulDense mismatch at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

// flatMulDense is the reference the overlay multiply must match bit for
// bit: one ordered flat scan per merged row, accumulating through out.
func flatMulDense(g *Graph, out, x *dense.Matrix) {
	k := x.Cols
	for i := 0; i < g.Dim(); i++ {
		orow := out.Data[i*k : (i+1)*k]
		for j := range orow {
			orow[j] = 0
		}
		cols, wts := g.Row(i)
		for p, col := range cols {
			xrow := x.Data[int(col)*k : int(col+1)*k]
			for j, v := range xrow {
				if wts == nil {
					orow[j] += v
				} else {
					orow[j] += wts[p] * v
				}
			}
		}
	}
}

// TestDeltaMulDenseBitIdentity: running the base CSR kernel and recomputing
// only the patched and added rows is bit-identical to the flat per-row scan
// — on a clean overlay, a dirty one (upserts, removals, weight changes) and
// one grown with AddNodes (x has more rows than the base), over unweighted
// and weighted bases, for k = 2..5, 7 and 11 (the base's constant-stride
// kernels, one strided panel, two panels): the patched rows' flat scan and
// the base kernel's rows meet in one matrix and must not differ.
func TestDeltaMulDenseBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 300
	for _, weighted := range []bool{false, true} {
		edges := map[[2]int32]float64{}
		for len(edges) < 1200 {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			edges[key(u, v)] = 1
			if weighted {
				edges[key(u, v)] = 0.5 + rng.Float64()
			}
		}
		clean := New(buildCSR(t, n, edges))
		dirty := clean.Clone()
		for i := 0; i < 200; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				dirty.SetEdge(u, v, 1) // new edge, or a weight reset to 1
			case 1:
				dirty.SetEdge(u, v, 0.25+rng.Float64())
			default:
				dirty.RemoveEdge(u, v)
			}
		}
		grown := dirty.Clone()
		first := grown.AddNodes(5) - 5
		grown.SetEdge(first, 3, 1)
		grown.SetEdge(first+2, first+3, 0.5) // first+1 and first+4 stay isolated
		for name, g := range map[string]*Graph{"clean": clean, "dirty": dirty, "grown": grown} {
			for _, k := range []int{2, 3, 4, 5, 7, 11} {
				x := dense.New(g.Dim(), k)
				for i := range x.Data {
					x.Data[i] = rng.NormFloat64()
				}
				got, want := dense.New(g.Dim(), k), dense.New(g.Dim(), k)
				for i := range got.Data {
					got.Data[i] = rng.NormFloat64() // stale output must be overwritten
				}
				g.MulDenseInto(got, x)
				flatMulDense(g, want, x)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("weighted=%v %s k=%d: out[%d] = %v, flat scan %v", weighted, name, k, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestDeltaRhoBoundAndFraction pins the drift bound and the compaction
// trigger accounting.
func TestDeltaRhoBoundAndFraction(t *testing.T) {
	edges := map[[2]int32]float64{{0, 1}: 1, {1, 2}: 1, {2, 0}: 1}
	g := New(buildCSR(t, 3, edges))
	if g.RhoDeltaBound() != 0 || g.PatchedFraction() != 0 {
		t.Fatal("fresh overlay not clean")
	}
	g.SetEdge(0, 2, 3) // was 1 → |Δ| = 2 on rows 0 and 2
	if b := g.RhoDeltaBound(); b != 2 {
		t.Fatalf("rho bound %v, want 2", b)
	}
	g.RemoveEdge(0, 1) // row 0 accumulates |−1| → 3
	if b := g.RhoDeltaBound(); b != 3 {
		t.Fatalf("rho bound %v, want 3", b)
	}
	if f := g.PatchedFraction(); f <= 0 || f > 1 {
		t.Fatalf("patched fraction %v out of range", f)
	}
	if g.MemoryBytes() <= 0 {
		t.Fatal("overlay memory unaccounted")
	}
	g = g.Compacted(g.Compact())
	if g.RhoDeltaBound() != 0 || g.PatchedFraction() != 0 || g.MemoryBytes() != 0 {
		t.Fatal("compaction did not reset the overlay")
	}
	if g.Stats().Compactions != 1 {
		t.Fatal("compaction counter not carried")
	}
}
