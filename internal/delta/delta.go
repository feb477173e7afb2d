// Package delta implements streaming graph mutations: a copy-on-write
// delta overlay over a frozen CSR adjacency matrix, so a live serving
// engine can accept online edge insertions, deletions and node additions
// without rebuilding the graph.
//
// The representation is a base CSR plus a table of fully-merged per-node
// patch rows, held in fixed chunks of row pointers: the first mutation
// that changes a node's row copies its base row once, and every later one
// in the same epoch edits the copy in place. Row is two loads (chunk, row)
// and no hash; unpatched rows read straight through to the base, so the
// overlay implements the execution layer's RowIterator contract
// (internal/exec) with the same slice-scan inner loops as a plain CSR —
// kernels cannot tell a mutated graph from a frozen one.
//
// Publication is epoch-based: a published *Graph is immutable. A mutator
// calls Clone (O(n/256): it copies the chunk pointers and takes a fresh
// epoch stamp), applies its batch to the clone, and swaps the clone in
// under whatever lock serializes readers (the serving engine's write
// lock). Every chunk and row carries the stamp of the epoch that wrote it,
// and a write to one stamped by any other epoch copies it first, so
// concurrent readers always see a consistent topology, and in-flight
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
	"slices"
	"sync/atomic"
	"unsafe"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// row is one merged patched adjacency row: the base row with every
// mutation applied, sorted by column. wts nil means all stored entries
// are 1 (same convention as the CSR). epoch is the Graph epoch that owns
// the row; any other epoch copies it before its first write.
type row struct {
	cols []int32
	wts  []float64
	// absDelta is Σ|w_new − w_old| over this row's mutated entries since
	// the last compaction — a Gershgorin-style row bound on the mutation
	// matrix ΔW, so ρ(ΔW) ≤ max absDelta and the owner can bound spectral
	// drift without a power iteration.
	absDelta float64
	epoch    uint64
}

// The row table is a slice of fixed chunks of row pointers: node u's
// patched row is chunks[u>>chunkBits].rows[u&chunkMask], nil when u reads
// through to the base. 256 pointers (2 KiB) per chunk: Clone copies n/256
// chunk pointers, and the first write to a chunk in an epoch copies 2 KiB.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is one block of the row table. epoch is the Graph epoch that owns
// it; any other epoch copies it before its first write. count is its
// number of non-nil rows.
type chunk struct {
	rows  [chunkSize]*row
	epoch uint64
	count int
}

// rowBytes and chunkBytes are MemoryBytes' per-row and per-chunk overheads.
const (
	rowBytes   = int64(unsafe.Sizeof(row{}))
	chunkBytes = int64(unsafe.Sizeof(chunk{}))
)

// bytes is the row's MemoryBytes share: its payloads and its header.
func (r *row) bytes() int64 { return 4*int64(cap(r.cols)) + 8*int64(cap(r.wts)) + rowBytes }

// epochs gives every Graph epoch a process-unique owner stamp, so a chunk
// or row stamped by any other epoch — older or a sibling clone — is shared.
var epochs atomic.Uint64

// Graph is a mutable adjacency matrix: base CSR + copy-on-write patch
// rows. The zero value is not usable; call New. A published Graph is
// immutable — mutate a Clone and swap it in (see the package comment).
type Graph struct {
	base   *sparse.CSR
	n      int
	chunks []*chunk // the row table, ⌈n/chunkSize⌉ entries; nil chunks hold no rows
	epoch  uint64   // owner stamp of the chunks and rows this Graph may write in place

	rows    int   // patched rows
	memory  int64 // MemoryBytes, kept as rows and chunks are copied or resized
	nnz     int   // current stored entries across base + patches
	patched int   // stored entries living in patched rows
	diag    int   // stored diagonal entries (for the undirected edge count)

	maxAbsDelta float64 // max row absDelta since the last compaction

	setEdges, removedEdges, addedNodes int64 // cumulative mutation counters
	compactions                        int64
}

// New wraps a frozen base CSR with an empty overlay.
func New(base *sparse.CSR) *Graph {
	g := &Graph{}
	g.reset(base)
	return g
}

// chunksFor returns how many row-table chunks n nodes need.
func chunksFor(n int) int { return (n + chunkMask) >> chunkBits }

// Dim returns the current node count (base nodes plus added nodes).
func (g *Graph) Dim() int { return g.n }

// NNZ returns the current stored-entry count.
func (g *Graph) NNZ() int { return g.nnz }

// Base returns the frozen base CSR of the current epoch.
func (g *Graph) Base() *sparse.CSR { return g.base }

// Dirty reports whether the overlay diverges from its base (patched rows
// or added nodes).
func (g *Graph) Dirty() bool { return g.rows > 0 || g.n != g.base.N }

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

// Row returns node u's merged adjacency row (RowIterator contract): its
// patch row if the table holds one (two loads, no hash), else the base's.
// The slices alias overlay or base storage and must be treated as frozen.
func (g *Graph) Row(u int) ([]int32, []float64) {
	if c := u >> chunkBits; c < len(g.chunks) {
		if ch := g.chunks[c]; ch != nil {
			if r := ch.rows[u&chunkMask]; r != nil {
				return r.cols, r.wts
			}
		}
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
	for c, ch := range g.chunks {
		if ch == nil {
			continue
		}
		for s, r := range &ch.rows {
			if r == nil {
				continue
			}
			node := c<<chunkBits | s
			orow := out.Data[node*k : (node+1)*k]
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
}

// Clone returns a mutable copy sharing every chunk and row copy-on-write:
// O(n/chunkSize), the chunk pointers alone. The receiver must be treated
// as frozen afterwards (publish-then-clone is the mutation protocol; see
// the package comment).
func (g *Graph) Clone() *Graph {
	out := *g
	out.chunks = slices.Clone(g.chunks)
	out.epoch = epochs.Add(1)
	mEpochs.Inc()
	mOverlayFraction.Set(g.PatchedFraction())
	return &out
}

// AddNodes appends count isolated nodes (ids n..n+count-1) and returns the
// new node count. New nodes acquire edges through SetEdge.
func (g *Graph) AddNodes(count int) int {
	g.n += count
	g.addedNodes += int64(count)
	if need := chunksFor(g.n); need > len(g.chunks) {
		g.chunks = append(g.chunks, make([]*chunk, need-len(g.chunks))...)
	}
	return g.n
}

// writableChunk returns the chunk holding node's row, owned by this epoch:
// allocated on first use, copied on the first write of the epoch.
func (g *Graph) writableChunk(node int) *chunk {
	c := node >> chunkBits
	ch := g.chunks[c]
	switch {
	case ch == nil:
		ch = &chunk{epoch: g.epoch}
		g.memory += chunkBytes
	case ch.epoch != g.epoch:
		cp := *ch
		cp.epoch = g.epoch
		ch = &cp
	default:
		return ch
	}
	g.chunks[c] = ch
	return ch
}

// patchRow returns the writable merged row for node, materializing it from
// the base (or copying another epoch's row) on first write.
func (g *Graph) patchRow(node int32) *row {
	ch := g.writableChunk(int(node))
	slot := &ch.rows[int(node)&chunkMask]
	r := *slot
	switch {
	case r == nil:
		r = &row{epoch: g.epoch}
		if int(node) < g.base.N {
			cols, wts := g.base.Row(int(node))
			r.cols = append([]int32(nil), cols...)
			if wts != nil {
				r.wts = append([]float64(nil), wts...)
			}
			g.patched += len(r.cols)
		}
		ch.count++
		g.rows++
	case r.epoch != g.epoch:
		cp := &row{
			cols:     append([]int32(nil), r.cols...),
			absDelta: r.absDelta,
			epoch:    g.epoch,
		}
		if r.wts != nil {
			cp.wts = append([]float64(nil), r.wts...)
		}
		g.memory -= r.bytes()
		r = cp
	default:
		return r
	}
	g.memory += r.bytes()
	*slot = r
	return r
}

// set upserts the directed entry (u → v) and returns its previous weight
// (0 when absent). An upsert of the weight already stored changes nothing,
// and copies nothing into the overlay.
func (g *Graph) set(u, v int32, w float64) (old float64) {
	cols, wts := g.Row(int(u))
	p, found := slices.BinarySearch(cols, v)
	if found {
		old = 1
		if wts != nil {
			old = wts[p]
		}
		if w == old {
			return old
		}
	}
	r := g.patchRow(u) // the same entries as (cols, wts): p still holds
	before := r.bytes()
	if found {
		if r.wts == nil {
			r.materializeWts()
		}
		r.wts[p] = w
	} else {
		r.cols = slices.Insert(r.cols, p, v)
		if r.wts != nil {
			r.wts = slices.Insert(r.wts, p, w)
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
	g.memory += r.bytes() - before
	r.absDelta += abs(w - old)
	if r.absDelta > g.maxAbsDelta {
		g.maxAbsDelta = r.absDelta
	}
	return old
}

// remove deletes the directed entry (u → v), reporting its previous weight.
// Removing an absent entry changes nothing, and copies nothing into the
// overlay.
func (g *Graph) remove(u, v int32) (old float64, existed bool) {
	cols, _ := g.Row(int(u))
	p, found := slices.BinarySearch(cols, v)
	if !found {
		return 0, false
	}
	r := g.patchRow(u)
	old = 1
	if r.wts != nil {
		old = r.wts[p]
		r.wts = slices.Delete(r.wts, p, p+1)
	}
	r.cols = slices.Delete(r.cols, p, p+1)
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
// topology bit-for-bit. A chunk whose pointer still equals the frozen
// epoch's was not written at all and is skipped whole. Kept rows stay
// stamped with the receiver's epoch, so the result copies them before its
// first write (the receiver stays published until the owner swaps the
// result in). nnz/diag carry over (the live edge set is unchanged); absDelta on
// kept rows accumulates since the OLD base, so the carried drift bound
// stays a conservative upper bound on ρ(ΔW) versus the new base. The
// receiver is not modified; when the receiver IS the frozen epoch the
// result degenerates to Compacted(base).
func (g *Graph) Rebase(frozen *Graph, base *sparse.CSR) *Graph {
	out := &Graph{
		base:   base,
		n:      g.n,
		chunks: make([]*chunk, len(g.chunks)),
		epoch:  epochs.Add(1),
		nnz:    g.nnz,
		diag:   g.diag,

		setEdges: g.setEdges, removedEdges: g.removedEdges,
		addedNodes:  g.addedNodes,
		compactions: g.compactions + 1,
	}
	reused, carried := int64(0), int64(0)
	for c, ch := range g.chunks {
		if ch == nil {
			continue
		}
		var fch *chunk
		if c < len(frozen.chunks) {
			fch = frozen.chunks[c]
		}
		if fch == ch {
			reused += int64(ch.count) // no write since the capture: base covers it
			continue
		}
		for s, r := range &ch.rows {
			if r == nil {
				continue
			}
			if fch != nil && fch.rows[s] == r {
				reused++
				continue // untouched since the capture: base covers it
			}
			carried++
			oc := out.writableChunk(c<<chunkBits | s)
			oc.rows[s] = r
			oc.count++
			out.rows++
			out.memory += r.bytes()
			out.patched += len(r.cols)
			if r.absDelta > out.maxAbsDelta {
				out.maxAbsDelta = r.absDelta
			}
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
	g.reset(base)
	g.compactions++
	// The previous epoch's patched share is gone; without this the global
	// overlay gauge reads stale until the next Clone.
	mOverlayFraction.Set(0)
}

// reset empties the overlay over base under a fresh epoch stamp.
func (g *Graph) reset(base *sparse.CSR) {
	g.base = base
	g.n = base.N
	g.chunks = make([]*chunk, chunksFor(base.N))
	g.epoch = epochs.Add(1)
	g.rows, g.memory = 0, 0
	g.nnz = base.NNZ()
	g.patched = 0
	g.diag = base.DiagCount()
	g.maxAbsDelta = 0
}

// MemoryBytes estimates the overlay's resident bytes beyond the base CSR:
// patch-row payloads and headers plus the row-table chunks. O(1): the count
// is kept as rows and chunks are copied, created or resized.
func (g *Graph) MemoryBytes() int64 { return g.memory }
