package exec

// Frontier is the small-tier dirty-node set driving push-based
// propagation: a Gauss–Southwell priority queue — a typed max-heap ordered
// by residual ∞-norm at enqueue time — over a membership table the caller
// lends, one flag per node id. A handful of dirty nodes costs a handful of
// heap entries no matter how large the graph is, and queueing a node
// allocates nothing once the heap's storage has grown.
//
// The frontier deliberately has no saturated tier of its own: once it
// grows past PromoteAt the strict ordering stops paying for its per-edge
// overhead and ShouldPromote tells the caller to switch to
// round-synchronous drains, whose active list and mark flags live in Pass
// (they are scheduling scratch of the dense storage tier, and they are
// rebuilt from the caller's norm table, not carried over).
//
// Drain leaves the frontier empty on every outcome, with every flag it set
// cleared, so it can be reused as it is. One abandoned with nodes still
// queued (never drained) leaves their flags set: the caller clears them,
// since it knows every node it queued, and drops the frontier.
//
// Norm staleness is allowed by construction: a queued node's residual may
// grow or shrink before it is popped, and callers re-check the live norm
// on pop (Drain does). A Frontier is not safe for concurrent use.
type Frontier struct {
	tol       float64
	promoteAt int

	pq  []heapEntry
	inq []bool
}

// NewFrontier builds an empty frontier over inq, the membership table the
// caller lends: it must cover every node id that will be queued and be all
// false. Nodes whose norm is at or below tol are never admitted.
// promoteAt <= 0 disables the promotion signal (the frontier stays a heap
// forever).
func NewFrontier(tol float64, promoteAt int, inq []bool) *Frontier {
	return &Frontier{tol: tol, promoteAt: promoteAt, inq: inq}
}

// Len returns the number of distinct queued nodes.
func (f *Frontier) Len() int { return len(f.pq) }

// Add queues node if its norm exceeds the tolerance and it is not already
// queued.
func (f *Frontier) Add(node int32, norm float64) {
	if norm <= f.tol || f.inq[node] {
		return
	}
	f.inq[node] = true
	f.pq = append(f.pq, heapEntry{node: node, norm: norm})
	f.up(len(f.pq) - 1)
}

// ShouldPromote reports that the frontier has outgrown heap economics and
// the caller should switch to a round-synchronous drain over its dense
// storage tier.
func (f *Frontier) ShouldPromote() bool {
	return f.promoteAt > 0 && len(f.pq) >= f.promoteAt
}

// PopMax removes and returns the queued node with the largest
// enqueue-time norm. ok is false when the frontier is empty.
func (f *Frontier) PopMax() (node int32, ok bool) {
	last := len(f.pq) - 1
	if last < 0 {
		return 0, false
	}
	f.pq[0], f.pq[last] = f.pq[last], f.pq[0]
	f.down(0, last)
	node = f.pq[last].node
	f.pq = f.pq[:last]
	f.inq[node] = false
	return node, true
}

// drop empties the frontier, clearing the flags of the nodes still queued;
// the heap keeps its storage.
func (f *Frontier) drop() {
	for _, e := range f.pq {
		f.inq[e.node] = false
	}
	f.pq = f.pq[:0]
}

// heapEntry orders the work queue by residual ∞-norm at enqueue time
// (Gauss–Southwell selection). Norms may change while queued; the pop-side
// re-check against the live norm keeps correctness independent of staleness.
type heapEntry struct {
	node int32
	norm float64
}

// up and down are container/heap's sift steps on the typed slice, with
// its comparisons in its order (a larger norm ranks first), so entries of
// equal norm pop in the order container/heap popped them.
func (f *Frontier) up(j int) {
	h := f.pq
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].norm > h[i].norm) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (f *Frontier) down(i, n int) {
	h := f.pq
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].norm > h[j1].norm {
			j = j2 // right child
		}
		if !(h[j].norm > h[i].norm) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
