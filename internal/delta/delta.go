// Package delta implements streaming graph mutations: a copy-on-write
// delta overlay over a frozen CSR adjacency matrix, so a live serving
// engine can accept online edge insertions, deletions and node additions
// without rebuilding the graph.
//
// The representation is a base CSR plus a sparse map of fully-merged
// per-node patch rows: the first mutation touching a node copies its base
// row once, and every later mutation of that node edits the copy in place.
// Unpatched rows read straight through to the base, so the overlay
// implements the execution layer's RowIterator contract (internal/exec)
// with the same slice-scan inner loops as a plain CSR — kernels cannot
// tell a mutated graph from a frozen one.
//
// Publication is epoch-based: a published *Graph is immutable. A mutator
// calls Clone (O(patched rows) — shallow row sharing with copy-on-write),
// applies its batch to the clone, and swaps the clone in under whatever
// lock serializes readers (the serving engine's write lock). Concurrent
// readers therefore always see a consistent topology, and in-flight
// iterations over the previous epoch stay valid because the rows they
// alias are never edited.
//
// Once the patched fraction of stored entries passes a threshold, the
// owner compacts: Compact merges base and patches into a fresh canonical
// CSR — bit-identical to what a cold build of the same edge set would
// construct, so spectral radii and ε-scalings re-derived from it match a
// cold engine exactly — and the overlay restarts empty over the new base.
package delta

import (
	"fmt"
	"sort"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// row is one merged patched adjacency row: the base row with every
// mutation applied, sorted by column. wts nil means all stored entries
// are 1 (same convention as the CSR). shared marks a row still owned by
// an older published epoch; it is copied before the first write.
type row struct {
	cols []int32
	wts  []float64
	// absDelta is Σ|w_new − w_old| over this row's mutated entries since
	// the last compaction — a Gershgorin-style row bound on the mutation
	// matrix ΔW, so ρ(ΔW) ≤ max absDelta and the owner can bound spectral
	// drift without a power iteration.
	absDelta float64
	shared   bool
}

// Graph is a mutable adjacency matrix: base CSR + copy-on-write patch
// rows. The zero value is not usable; call New. A published Graph is
// immutable — mutate a Clone and swap it in (see the package comment).
type Graph struct {
	base *sparse.CSR
	n    int
	rows map[int32]*row

	nnz     int // current stored entries across base + patches
	patched int // stored entries living in patched rows
	diag    int // stored diagonal entries (for the undirected edge count)

	maxAbsDelta float64 // max row absDelta since the last compaction

	setEdges, removedEdges, addedNodes int64 // cumulative mutation counters
	compactions                        int64
}

// New wraps a frozen base CSR with an empty overlay.
func New(base *sparse.CSR) *Graph {
	return &Graph{
		base: base,
		n:    base.N,
		rows: make(map[int32]*row),
		nnz:  base.NNZ(),
		diag: base.DiagCount(),
	}
}

// Dim returns the current node count (base nodes plus added nodes).
func (g *Graph) Dim() int { return g.n }

// NNZ returns the current stored-entry count.
func (g *Graph) NNZ() int { return g.nnz }

// Base returns the frozen base CSR of the current epoch.
func (g *Graph) Base() *sparse.CSR { return g.base }

// Dirty reports whether the overlay diverges from its base (patched rows
// or added nodes).
func (g *Graph) Dirty() bool { return len(g.rows) > 0 || g.n != g.base.N }

// PatchedEntries returns how many stored entries live in patch rows.
func (g *Graph) PatchedEntries() int { return g.patched }

// PatchedFraction returns the share of stored entries living in patch
// rows — the compaction trigger. An empty graph reports 0.
func (g *Graph) PatchedFraction() float64 {
	if g.nnz == 0 {
		if g.patched > 0 || g.n != g.base.N {
			return 1
		}
		return 0
	}
	return float64(g.patched) / float64(g.nnz)
}

// UndirectedEdges returns the undirected edge count m (off-diagonal
// entries appear twice in the symmetric matrix, diagonal ones once).
func (g *Graph) UndirectedEdges() int { return (g.nnz-g.diag)/2 + g.diag }

// RhoDeltaBound returns a Gershgorin-style upper bound on ρ(ΔW) for the
// symmetric mutation matrix ΔW accumulated since the last compaction:
// the maximum over rows of Σ|Δw|. The owner uses ρ(W') ≤ ρ(W_base) +
// RhoDeltaBound() to guard the pinned ε-scaling's contraction margin
// without running a power iteration per mutation.
func (g *Graph) RhoDeltaBound() float64 { return g.maxAbsDelta }

// Stats reports the cumulative mutation counters.
type Stats struct {
	SetEdges     int64 `json:"set_edges"`
	RemovedEdges int64 `json:"removed_edges"`
	AddedNodes   int64 `json:"added_nodes"`
	Compactions  int64 `json:"compactions"`
}

// Stats returns the cumulative mutation counters (they survive
// compactions and clones).
func (g *Graph) Stats() Stats {
	return Stats{
		SetEdges: g.setEdges, RemovedEdges: g.removedEdges,
		AddedNodes: g.addedNodes, Compactions: g.compactions,
	}
}

// Row returns node u's merged adjacency row (RowIterator contract). The
// slices alias overlay or base storage and must be treated as frozen.
func (g *Graph) Row(u int) ([]int32, []float64) {
	if r, ok := g.rows[int32(u)]; ok {
		return r.cols, r.wts
	}
	if u >= g.base.N {
		return nil, nil // added node with no edges yet
	}
	return g.base.Row(u)
}

// MulDenseInto computes out = W × X (RowIterator contract): the base CSR
// kernel writes rows [0, base.N), then only the patched and added rows are
// recomputed from their merged rows. Every output row is the ordered flat
// scan of its own row either way, so a clean overlay, a dirty one and a cold
// CSR of the same edge set agree bit for bit.
func (g *Graph) MulDenseInto(out, x *dense.Matrix) {
	if x.Rows != g.n {
		panic(fmt.Sprintf("delta: MulDense shape mismatch: W is %d×%d, X has %d rows", g.n, g.n, x.Rows))
	}
	if out.Rows != g.n || out.Cols != x.Cols {
		panic(fmt.Sprintf("delta: MulDenseInto bad out shape %d×%d, want %d×%d", out.Rows, out.Cols, g.n, x.Cols))
	}
	g.base.MulDenseRowsInto(out, x)
	k := x.Cols
	added := out.Data[g.base.N*k:]
	for j := range added {
		added[j] = 0 // an added node without edges has no patch row
	}
	for node, r := range g.rows {
		orow := out.Data[int(node)*k : int(node+1)*k]
		for j := range orow {
			orow[j] = 0
		}
		for p, col := range r.cols {
			wv := 1.0
			if r.wts != nil {
				wv = r.wts[p]
			}
			xrow := x.Data[int(col)*k : int(col+1)*k]
			for j, v := range xrow {
				orow[j] += wv * v
			}
		}
	}
}

// Clone returns a mutable copy sharing every row copy-on-write. The
// receiver must be treated as frozen afterwards (publish-then-clone is the
// mutation protocol; see the package comment).
func (g *Graph) Clone() *Graph {
	out := *g
	out.rows = make(map[int32]*row, len(g.rows))
	for node, r := range g.rows {
		r.shared = true // benign on the frozen original: never written again
		out.rows[node] = r
	}
	mEpochs.Inc()
	mOverlayFraction.Set(g.PatchedFraction())
	return &out
}

// AddNodes appends count isolated nodes (ids n..n+count-1) and returns the
// new node count. New nodes acquire edges through SetEdge.
func (g *Graph) AddNodes(count int) int {
	g.n += count
	g.addedNodes += int64(count)
	return g.n
}

// patchRow returns the writable merged row for node, materializing it from
// the base (or copying a shared clone) on first write.
func (g *Graph) patchRow(node int32) *row {
	r, ok := g.rows[node]
	if ok {
		if r.shared {
			cp := &row{
				cols:     append([]int32(nil), r.cols...),
				absDelta: r.absDelta,
			}
			if r.wts != nil {
				cp.wts = append([]float64(nil), r.wts...)
			}
			g.rows[node] = cp
			return cp
		}
		return r
	}
	r = &row{}
	if int(node) < g.base.N {
		cols, wts := g.base.Row(int(node))
		r.cols = append([]int32(nil), cols...)
		if wts != nil {
			r.wts = append([]float64(nil), wts...)
		}
		g.patched += len(r.cols)
	}
	g.rows[node] = r
	return r
}

// set upserts the directed entry (u → v) and returns its previous weight
// (0 when absent).
func (g *Graph) set(u, v int32, w float64) (old float64) {
	r := g.patchRow(u)
	p := sort.Search(len(r.cols), func(i int) bool { return r.cols[i] >= v })
	if p < len(r.cols) && r.cols[p] == v {
		old = 1
		if r.wts != nil {
			old = r.wts[p]
		}
		if w != old && r.wts == nil {
			r.materializeWts()
		}
		if r.wts != nil {
			r.wts[p] = w
		}
	} else {
		r.cols = append(r.cols, 0)
		copy(r.cols[p+1:], r.cols[p:])
		r.cols[p] = v
		if r.wts != nil {
			r.wts = append(r.wts, 0)
			copy(r.wts[p+1:], r.wts[p:])
			r.wts[p] = w
		} else if w != 1 {
			r.materializeWts()
			r.wts[p] = w
		}
		g.nnz++
		g.patched++
		if u == v {
			g.diag++
		}
	}
	r.absDelta += abs(w - old)
	if r.absDelta > g.maxAbsDelta {
		g.maxAbsDelta = r.absDelta
	}
	return old
}

// remove deletes the directed entry (u → v), reporting its previous weight.
func (g *Graph) remove(u, v int32) (old float64, existed bool) {
	r := g.patchRow(u)
	p := sort.Search(len(r.cols), func(i int) bool { return r.cols[i] >= v })
	if p >= len(r.cols) || r.cols[p] != v {
		return 0, false
	}
	old = 1
	if r.wts != nil {
		old = r.wts[p]
		r.wts = append(r.wts[:p], r.wts[p+1:]...)
	}
	r.cols = append(r.cols[:p], r.cols[p+1:]...)
	g.nnz--
	g.patched--
	if u == v {
		g.diag--
	}
	r.absDelta += abs(old)
	if r.absDelta > g.maxAbsDelta {
		g.maxAbsDelta = r.absDelta
	}
	return old, true
}

func (r *row) materializeWts() {
	r.wts = make([]float64, len(r.cols))
	for i := range r.wts {
		r.wts[i] = 1
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// SetEdge upserts the undirected edge (u, v) with weight w, patching both
// symmetric entries, and returns the previous weight (0 when the edge was
// absent). Endpoints must be in [0, Dim()) and w > 0; the caller
// validates — this is the storage layer.
func (g *Graph) SetEdge(u, v int, w float64) (old float64) {
	old = g.set(int32(u), int32(v), w)
	if u != v {
		g.set(int32(v), int32(u), w)
	}
	g.setEdges++
	return old
}

// RemoveEdge deletes the undirected edge (u, v) from both symmetric rows,
// returning its previous weight; existed is false (and the graph is
// unchanged) when the edge was not present.
func (g *Graph) RemoveEdge(u, v int) (old float64, existed bool) {
	old, existed = g.remove(int32(u), int32(v))
	if !existed {
		return 0, false
	}
	if u != v {
		g.remove(int32(v), int32(u))
	}
	g.removedEdges++
	return old, true
}

// Compact merges the base and the overlay into a fresh canonical CSR:
// rows ordered, columns sorted, and the implicit all-ones representation
// restored when every weight is 1 — bit-identical to a cold
// NewSymmetricFromEdges build of the same edge set, so anything re-derived
// from it (spectral radius, ε) matches a cold engine exactly. The receiver
// is not modified; call ResetBase with the result to start a new epoch.
func (g *Graph) Compact() *sparse.CSR {
	mCompacts.Inc()
	indptr := make([]int, g.n+1)
	indices := make([]int32, 0, g.nnz)
	data := make([]float64, 0, g.nnz)
	allOnes := true
	for i := 0; i < g.n; i++ {
		cols, wts := g.Row(i)
		indices = append(indices, cols...)
		if wts == nil {
			for range cols {
				data = append(data, 1)
			}
		} else {
			for _, w := range wts {
				if w != 1 {
					allOnes = false
				}
				data = append(data, w)
			}
		}
		indptr[i+1] = len(indices)
	}
	out := &sparse.CSR{N: g.n, IndPtr: indptr, Indices: indices}
	if !allOnes {
		out.Data = data
	}
	return out
}

// Compacted returns the successor epoch of a compaction: a fresh Graph
// over base (normally the CSR Compact just produced) with an empty
// overlay, carrying the cumulative mutation counters. The receiver is not
// modified — published epochs stay immutable.
func (g *Graph) Compacted(base *sparse.CSR) *Graph {
	out := *g
	out.ResetBase(base)
	return &out
}

// Rebase returns the successor epoch of an asynchronous compaction: base
// is the canonical CSR compacted from the frozen epoch, and the receiver
// is the live epoch that kept accepting mutations while that build ran.
// The copy-on-write protocol makes the separation exact — a row whose
// pointer still equals the frozen epoch's was never written after the
// capture and is fully covered by base, while a diverged or new row holds
// the post-capture mutations merged over content base already includes, so
// carrying it as a patch row over the new base reproduces the live
// topology bit-for-bit. Kept rows mark shared (they are still aliased by
// the receiver, which stays published until the owner swaps the result
// in). nnz/diag carry over (the live edge set is unchanged); absDelta on
// kept rows accumulates since the OLD base, so the carried drift bound
// stays a conservative upper bound on ρ(ΔW) versus the new base. The
// receiver is not modified beyond the shared marks; when the receiver IS
// the frozen epoch the result degenerates to Compacted(base).
func (g *Graph) Rebase(frozen *Graph, base *sparse.CSR) *Graph {
	out := &Graph{
		base: base,
		n:    g.n,
		rows: make(map[int32]*row),
		nnz:  g.nnz,
		diag: g.diag,

		setEdges: g.setEdges, removedEdges: g.removedEdges,
		addedNodes:  g.addedNodes,
		compactions: g.compactions + 1,
	}
	reused, carried := int64(0), int64(0)
	for node, r := range g.rows {
		if fr, ok := frozen.rows[node]; ok && fr == r {
			reused++
			continue // untouched since the capture: base covers it
		}
		carried++
		r.shared = true
		out.rows[node] = r
		out.patched += len(r.cols)
		if r.absDelta > out.maxAbsDelta {
			out.maxAbsDelta = r.absDelta
		}
	}
	mRebaseReused.Add(reused)
	mRebaseCarried.Add(carried)
	mOverlayFraction.Set(out.PatchedFraction())
	return out
}

// Degrees returns the weighted degree (row sum) of every live row — the
// diagonal of the degree matrix D over base + overlay. Together with Dim
// and MulDenseInto it lets the summaries layer sketch a dirty overlay
// directly, without compacting first.
func (g *Graph) Degrees() []float64 {
	d := make([]float64, g.n)
	for i := 0; i < g.n; i++ {
		cols, wts := g.Row(i)
		if wts == nil {
			d[i] = float64(len(cols))
			continue
		}
		var s float64
		for _, w := range wts {
			s += w
		}
		d[i] = s
	}
	return d
}

// ResetBase starts a fresh epoch over base (normally the CSR Compact just
// produced): the overlay empties, the spectral drift bound resets, and the
// cumulative mutation counters carry over.
func (g *Graph) ResetBase(base *sparse.CSR) {
	g.base = base
	g.n = base.N
	g.rows = make(map[int32]*row)
	g.nnz = base.NNZ()
	g.patched = 0
	g.diag = base.DiagCount()
	g.maxAbsDelta = 0
	g.compactions++
	// The previous epoch's patched share is gone; without this the global
	// overlay gauge reads stale until the next Clone.
	mOverlayFraction.Set(0)
}

// MemoryBytes estimates the overlay's resident bytes beyond the base CSR:
// patch-row payloads plus map and slice overhead.
func (g *Graph) MemoryBytes() int64 {
	var b int64
	for _, r := range g.rows {
		b += 4 * int64(cap(r.cols))
		if r.wts != nil {
			b += 8 * int64(cap(r.wts))
		}
		b += 96 // row struct + two slice headers + map bucket share
	}
	return b
}
