package exec

// PushKernel is one node-at-a-time push step of a Gauss–Southwell drain.
// The kernel owns the actual storage (dense rows, or a patch session's
// slot-indexed copy-on-write rows over its base); Drain owns scheduling.
type PushKernel interface {
	// Norm returns node's current residual ∞-norm. Drain re-checks it on
	// every pop, so stale heap priorities never cause a wrong push.
	Norm(node int32) float64
	// Push absorbs node's residual into its belief row and forwards the
	// mass to its neighbors, reporting every neighbor whose residual norm
	// it changed through dirtied (Drain re-queues the ones above
	// tolerance). It returns the number of edges traversed.
	Push(node int32, dirtied func(node int32, norm float64)) (edges int)
}

// DrainOutcome reports how a Drain ended.
type DrainOutcome int

const (
	// Drained: the frontier emptied — every node is at or below tolerance.
	Drained DrainOutcome = iota
	// Saturated: the frontier grew past its promotion threshold; the
	// caller must move its residual rows to dense storage and drain with
	// round-synchronous passes (Pass).
	Saturated
	// BudgetExceeded: edge traversals passed edgeBudget; the kernel's
	// invariant is intact and the caller promotes, exactly as on Saturated.
	BudgetExceeded
)

// Drain runs the sequential largest-residual-first push loop over a
// small-tier frontier until it empties, saturates, or exhausts the edge
// budget (edgeBudget <= 0 means unbounded). It is the single push loop of
// the residual solver's patch sessions; the budget check runs after each
// push so a kernel's invariant is never left mid-node. The frontier is
// empty on every outcome: a promoting drain drops the nodes still queued
// (the caller rebuilds its active set from its norm table), so the
// frontier can serve the caller's next drain as it is.
func Drain(f *Frontier, k PushKernel, edgeBudget int) (pushed, edges int, outcome DrainOutcome) {
	tol := f.tol
	add := f.Add // bound once: a method value per push would allocate per push
	for f.Len() > 0 {
		if f.ShouldPromote() {
			f.drop()
			return pushed, edges, Saturated
		}
		node, ok := f.PopMax()
		if !ok {
			break
		}
		if k.Norm(node) <= tol {
			continue // pushed down (or absorbed) since it was enqueued
		}
		edges += k.Push(node, add)
		pushed++
		if edgeBudget > 0 && edges > edgeBudget {
			f.drop()
			return pushed, edges, BudgetExceeded
		}
	}
	return pushed, edges, Drained
}
