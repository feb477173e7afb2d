package exec

import (
	"container/heap"
	"math/rand"
	"testing"
)

// TestFrontierOrdering: with no staleness, PopMax drains strictly by
// descending enqueue-time norm and each admitted node comes out exactly
// once.
func TestFrontierOrdering(t *testing.T) {
	f := NewFrontier(0.5, 0, make([]bool, 6))
	norms := map[int32]float64{1: 3, 2: 9, 3: 1, 4: 7}
	for node, norm := range norms {
		f.Add(node, norm)
	}
	f.Add(5, 0.5) // at tolerance: not admitted
	f.Add(2, 99)  // duplicate: ignored (first enqueue wins)
	if f.Len() != 4 {
		t.Fatalf("len = %d, want 4", f.Len())
	}
	want := []int32{2, 4, 1, 3}
	for i, wantNode := range want {
		node, ok := f.PopMax()
		if !ok || node != wantNode {
			t.Fatalf("pop %d = (%d, %v), want %d", i, node, ok, wantNode)
		}
	}
	if _, ok := f.PopMax(); ok {
		t.Error("pop on empty frontier succeeded")
	}
}

// TestFrontierPromoteDemote is the tier property test: random add/pop
// interleavings must (a) keep Len equal to the distinct queued set and
// never surface an unqueued node, (b) signal promotion exactly when the
// threshold is reached (the caller then moves to its dense tier and the
// norm table becomes the source of truth), and (c) once popped empty,
// leave every membership flag clear and take new nodes — the reuse a
// patch session's recycled frontier relies on. A fresh frontier over a
// clean table starts empty, unpromoted and usable.
func TestFrontierPromoteDemote(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		promoteAt := 4 + rng.Intn(60)
		inq := make([]bool, 200)
		f := NewFrontier(0, promoteAt, inq)
		queued := map[int32]bool{}
		promoted := false
		for op := 0; op < 500 && !promoted; op++ {
			if rng.Float64() < 0.7 {
				node := int32(rng.Intn(200))
				f.Add(node, rng.Float64()+0.01)
				queued[node] = true
			} else if len(queued) > 0 {
				node, ok := f.PopMax()
				if !ok {
					t.Fatalf("trial %d: queued=%d but PopMax empty", trial, len(queued))
				}
				if !queued[node] {
					t.Fatalf("trial %d: popped %d which was not queued", trial, node)
				}
				delete(queued, node)
			}
			if f.Len() != len(queued) {
				t.Fatalf("trial %d: Len=%d, queued=%d", trial, f.Len(), len(queued))
			}
			if f.ShouldPromote() {
				if len(queued) < promoteAt {
					t.Fatalf("trial %d: promotion signalled at %d < threshold %d", trial, len(queued), promoteAt)
				}
				promoted = true
			} else if len(queued) >= promoteAt {
				t.Fatalf("trial %d: %d ≥ threshold %d without promotion signal", trial, len(queued), promoteAt)
			}
		}
		for f.Len() > 0 {
			f.PopMax()
		}
		for node, set := range inq {
			if set {
				t.Fatalf("trial %d: node %d still flagged after the frontier emptied", trial, node)
			}
		}
		f.Add(7, 1)
		if f.Len() != 1 {
			t.Fatalf("trial %d: emptied frontier unusable", trial)
		}
		fresh := NewFrontier(0, promoteAt, make([]bool, 200))
		if fresh.Len() != 0 {
			t.Fatalf("trial %d: fresh frontier has len=%d", trial, fresh.Len())
		}
		if fresh.ShouldPromote() {
			t.Fatalf("trial %d: empty frontier signals promotion", trial)
		}
		fresh.Add(7, 1)
		if fresh.Len() != 1 {
			t.Fatalf("trial %d: fresh frontier unusable", trial)
		}
	}
}

// TestFrontierNoPromotion: promoteAt <= 0 never promotes.
func TestFrontierNoPromotion(t *testing.T) {
	f := NewFrontier(0, 0, make([]bool, 10000))
	for i := int32(0); i < 10000; i++ {
		f.Add(i, 1)
	}
	if f.ShouldPromote() {
		t.Error("promoteAt=0 frontier wants promotion")
	}
}

// refFrontier is the frontier as it was before the typed heap: a
// container/heap max-heap over boxed entries, with membership in a map.
// FuzzFrontier holds the typed heap to its pop order.
type refFrontier struct {
	tol       float64
	promoteAt int
	pq        refHeap
	inq       map[int32]struct{}
}

func (f *refFrontier) Add(node int32, norm float64) {
	if norm <= f.tol {
		return
	}
	if _, ok := f.inq[node]; ok {
		return
	}
	f.inq[node] = struct{}{}
	heap.Push(&f.pq, heapEntry{node: node, norm: norm})
}

func (f *refFrontier) PopMax() (int32, bool) {
	if len(f.pq) == 0 {
		return 0, false
	}
	top := heap.Pop(&f.pq).(heapEntry)
	delete(f.inq, top.node)
	return top.node, true
}

func (f *refFrontier) ShouldPromote() bool {
	return f.promoteAt > 0 && len(f.inq) >= f.promoteAt
}

type refHeap []heapEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].norm > h[j].norm }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// FuzzFrontier runs one op stream — Add, PopMax and ShouldPromote — on the
// typed heap and on refFrontier. Every pop, every Len and every promotion
// signal must agree. Norms come from a few levels so ties are common: equal
// norms must leave in container/heap's order. Each byte pair is one op: the
// first picks the op and the norm level, the second the node.
func FuzzFrontier(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 8, 3, 1, 0, 12, 1, 16, 2, 2, 0}, uint8(3))
	f.Add([]byte{4, 7, 4, 7, 5, 8, 6, 9, 3, 0, 3, 0, 3, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, ops []byte, promoteAt uint8) {
		const nodes = 64
		levels := []float64{0, 0.5, 1, 1, 2, 3, 3, 7}
		inq := make([]bool, nodes)
		got := NewFrontier(0.5, int(promoteAt%16), inq)
		want := &refFrontier{tol: 0.5, promoteAt: int(promoteAt % 16), inq: map[int32]struct{}{}}
		for i := 0; i+1 < len(ops); i += 2 {
			op, node := ops[i], int32(ops[i+1]%nodes)
			switch op % 4 {
			case 0, 1:
				norm := levels[(op/4)%8]
				got.Add(node, norm)
				want.Add(node, norm)
			case 2:
				gn, gok := got.PopMax()
				wn, wok := want.PopMax()
				if gn != wn || gok != wok {
					t.Fatalf("op %d: PopMax = (%d, %v), reference (%d, %v)", i/2, gn, gok, wn, wok)
				}
			case 3:
				if g, w := got.ShouldPromote(), want.ShouldPromote(); g != w {
					t.Fatalf("op %d: ShouldPromote = %v, reference %v", i/2, g, w)
				}
			}
			if got.Len() != len(want.inq) {
				t.Fatalf("op %d: Len = %d, reference %d", i/2, got.Len(), len(want.inq))
			}
		}
		for {
			gn, gok := got.PopMax()
			wn, wok := want.PopMax()
			if gn != wn || gok != wok {
				t.Fatalf("final drain: PopMax = (%d, %v), reference (%d, %v)", gn, gok, wn, wok)
			}
			if !gok {
				break
			}
		}
		for node, set := range inq {
			if set {
				t.Fatalf("node %d still flagged after the frontier emptied", node)
			}
		}
	})
}
