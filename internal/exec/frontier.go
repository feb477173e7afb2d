package exec

import "container/heap"

// Frontier is the small-tier dirty-node set driving push-based
// propagation: a Gauss–Southwell priority queue — a max-heap ordered by
// residual ∞-norm at enqueue time over a sparse membership map — so a
// handful of dirty nodes costs a handful of map entries no matter how
// large the graph is.
//
// The frontier deliberately has no saturated tier of its own: once it
// grows past PromoteAt the strict ordering stops paying for its per-edge
// overhead and ShouldPromote tells the caller to switch to
// round-synchronous drains, whose active arrays and mark bitmaps live in
// PullPass (they are scheduling scratch of the dense storage tier, and
// they are rebuilt from the caller's norm table, not carried over). After
// a promoted drain completes the caller Resets the frontier, which is then
// empty and tiny again.
//
// Norm staleness is allowed by construction: a queued node's residual may
// grow or shrink before it is popped, and callers re-check the live norm
// on pop (Drain does). A Frontier is not safe for concurrent use.
type Frontier struct {
	tol       float64
	promoteAt int

	pq  nodeHeap
	inq map[int32]struct{}
}

// NewFrontier builds an empty frontier. Nodes whose norm is at or below
// tol are never admitted. promoteAt <= 0 disables the promotion signal
// (the frontier stays a heap forever).
func NewFrontier(tol float64, promoteAt int) *Frontier {
	return &Frontier{tol: tol, promoteAt: promoteAt, inq: make(map[int32]struct{})}
}

// Tol returns the admission threshold.
func (f *Frontier) Tol() float64 { return f.tol }

// Len returns the number of distinct queued nodes.
func (f *Frontier) Len() int { return len(f.inq) }

// Add queues node if its norm exceeds the tolerance and it is not already
// queued.
func (f *Frontier) Add(node int32, norm float64) {
	if norm <= f.tol {
		return
	}
	if _, ok := f.inq[node]; ok {
		return
	}
	f.inq[node] = struct{}{}
	heap.Push(&f.pq, heapEntry{node: node, norm: norm})
}

// ShouldPromote reports that the frontier has outgrown heap economics and
// the caller should switch to a round-synchronous drain over its dense
// storage tier.
func (f *Frontier) ShouldPromote() bool {
	return f.promoteAt > 0 && len(f.inq) >= f.promoteAt
}

// PopMax removes and returns the queued node with the largest
// enqueue-time norm. ok is false when the frontier is empty.
func (f *Frontier) PopMax() (node int32, ok bool) {
	for len(f.pq) > 0 {
		top := heap.Pop(&f.pq).(heapEntry)
		if _, queued := f.inq[top.node]; !queued {
			continue // superseded duplicate left behind by Reset
		}
		delete(f.inq, top.node)
		return top.node, true
	}
	return 0, false
}

// Reset empties the frontier (callers promote by moving their residual
// rows to dense storage, then Reset — the dirty set's source of truth is
// the norm table from there on).
func (f *Frontier) Reset() {
	f.pq = nil
	f.inq = make(map[int32]struct{})
}

// heapEntry orders the work queue by residual ∞-norm at enqueue time
// (Gauss–Southwell selection). Norms may change while queued; the pop-side
// re-check against the live norm keeps correctness independent of staleness.
type heapEntry struct {
	node int32
	norm float64
}

type nodeHeap []heapEntry

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].norm > h[j].norm }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(heapEntry)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
