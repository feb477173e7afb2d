// Package sparse implements the hand-rolled CSR (compressed sparse row)
// matrix kernel the reproduction is built on.
//
// The paper's hot loop is W × (n×k dense) where W is the n×n adjacency
// matrix with m nonzeros and k is small (2–12). CSR gives contiguous row
// scans and row-parallel multiplication; all estimation sketches
// (Algorithm 4.4) reduce to repeated calls of MulDense.
package sparse

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"factorgraph/internal/dense"
)

// CSR is a square n×n sparse matrix in compressed-sparse-row form.
// If Data is nil every stored entry has value 1 (the common unweighted
// adjacency case), which keeps 16M-edge graphs in memory comfortably.
type CSR struct {
	N       int
	IndPtr  []int     // len N+1; row i occupies Indices[IndPtr[i]:IndPtr[i+1]]
	Indices []int32   // column indices, sorted within each row
	Data    []float64 // nil ⇒ implicit all-ones

	rho atomic.Pointer[rhoMemo] // memoized ρ(W) bracket; see SpectralBracketCached
}

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.Indices) }

// Dim returns the node count n. Together with Row and MulDenseInto it makes
// *CSR the canonical implementation of the execution layer's RowIterator.
func (c *CSR) Dim() int { return c.N }

// Row returns row u's column indices and weights (nil weights ⇒ implicit
// all-ones). The slices alias CSR storage; callers must not mutate them.
func (c *CSR) Row(u int) ([]int32, []float64) {
	lo, hi := c.IndPtr[u], c.IndPtr[u+1]
	if c.Data == nil {
		return c.Indices[lo:hi], nil
	}
	return c.Indices[lo:hi], c.Data[lo:hi]
}

// Coord is a single (row, col, weight) triple used during construction.
type Coord struct {
	Row, Col int32
	W        float64
}

// NewFromCoords builds a CSR matrix from coordinate triples; coords is not
// modified. Duplicate coordinates are summed in ascending-weight order, so a
// symmetric input stays bit-for-bit symmetric whatever order its duplicates
// arrive in. Weights equal to 1 everywhere collapse to the implicit-ones
// representation.
func NewFromCoords(n int, coords []Coord) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d", n)
	}
	indptr := make([]int, n+1)
	for _, c := range coords {
		if c.Row < 0 || int(c.Row) >= n || c.Col < 0 || int(c.Col) >= n {
			return nil, fmt.Errorf("sparse: coordinate (%d,%d) out of range for n=%d", c.Row, c.Col, n)
		}
		indptr[c.Row+1]++
	}
	rowStarts(indptr)
	cols := make([]int32, len(coords))
	w := make([]float64, len(coords))
	for _, c := range coords {
		p := indptr[c.Row]
		cols[p], w[p] = c.Col, c.W
		indptr[c.Row]++
	}
	return finishRows(n, indptr, cols, w), nil
}

// NewSymmetricFromEdges builds the symmetric adjacency matrix of an
// undirected graph: each edge (u,v) contributes entries (u,v) and (v,u).
// Self-loops contribute a single diagonal entry. weights may be nil for an
// unweighted graph. The result is the CSR NewFromCoords builds from those
// entries, without materializing them.
func NewSymmetricFromEdges(n int, edges [][2]int32, weights []float64) (*CSR, error) {
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("sparse: %d weights for %d edges", len(weights), len(edges))
	}
	if n < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d", n)
	}
	indptr := make([]int, n+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("sparse: coordinate (%d,%d) out of range for n=%d", u, v, n)
		}
		indptr[u+1]++
		if u != v {
			indptr[v+1]++
		}
	}
	rowStarts(indptr)
	cols := make([]int32, indptr[n])
	var w []float64
	if weights != nil {
		w = make([]float64, indptr[n])
	}
	for i, e := range edges {
		u, v := e[0], e[1]
		p := indptr[u]
		cols[p] = v
		indptr[u]++
		if w != nil {
			w[p] = weights[i]
		}
		if u != v {
			p = indptr[v]
			cols[p] = u
			indptr[v]++
			if w != nil {
				w[p] = weights[i]
			}
		}
	}
	return finishRows(n, indptr, cols, w), nil
}

// rowStarts turns per-row counts held at indptr[r+1] into row starts.
func rowStarts(indptr []int) {
	for i := 1; i < len(indptr); i++ {
		indptr[i] += indptr[i-1]
	}
}

// finishRows is the one finalizer of the counting-sort build. It takes rows
// scattered in input order — indptr[r] is the END of row r, the start cursor
// having been advanced past every entry the scatter wrote — and returns the
// canonical CSR: columns ascending, duplicates summed into one entry in
// ascending-weight order, all-ones weights collapsed to Data == nil. w nil
// means every weight is 1; unit duplicates then materialize Data holding
// their multiplicity. A row is sorted only when the scatter left it out of
// (col, w) order, which never happens to an edge list sorted by (u, v)
// with u ≤ v and no repeated pair, such as one read back out of a CSR.
// Merging runs in place over cols and w.
func finishRows(n int, indptr []int, cols []int32, w []float64) *CSR {
	copy(indptr[1:], indptr[:n])
	indptr[0] = 0
	data := w
	var sorter *rowSorter
	q, lo := 0, 0
	for r := 0; r < n; r++ {
		hi := indptr[r+1]
		if w == nil {
			if !rowInOrder(cols[lo:hi], nil) {
				slices.Sort(cols[lo:hi])
			}
		} else if !rowInOrder(cols[lo:hi], w[lo:hi]) {
			if sorter == nil {
				sorter = new(rowSorter)
			}
			sorter.cols, sorter.w = cols[lo:hi], w[lo:hi]
			sort.Sort(sorter)
		}
		for p := lo; p < hi; {
			c, end := cols[p], p+1
			for end < hi && cols[end] == c {
				end++
			}
			cols[q] = c
			switch {
			case w != nil:
				s := 0.0
				for _, x := range w[p:end] {
					s += x
				}
				data[q] = s
			case data != nil:
				data[q] = float64(end - p)
			case end-p > 1:
				data = make([]float64, len(cols))
				for i := range data[:q] {
					data[i] = 1
				}
				data[q] = float64(end - p)
			}
			q++
			p = end
		}
		indptr[r+1] = q
		lo = hi
	}
	c := &CSR{N: n, IndPtr: indptr, Indices: cols[:q]}
	if data != nil {
		for _, x := range data[:q] {
			if x != 1 {
				c.Data = data[:q]
				break
			}
		}
	}
	return c
}

// rowInOrder reports whether a scattered row is in (col, w) order; w nil
// means unit weights.
func rowInOrder(cols []int32, w []float64) bool {
	for p := 1; p < len(cols); p++ {
		if cols[p] < cols[p-1] || (cols[p] == cols[p-1] && w != nil && w[p] < w[p-1]) {
			return false
		}
	}
	return true
}

// rowSorter orders one weighted row by (col, w).
type rowSorter struct {
	cols []int32
	w    []float64
}

func (s *rowSorter) Len() int { return len(s.cols) }
func (s *rowSorter) Less(i, j int) bool {
	if s.cols[i] != s.cols[j] {
		return s.cols[i] < s.cols[j]
	}
	return s.w[i] < s.w[j]
}
func (s *rowSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// DiagCount returns the number of rows holding a stored diagonal entry
// (whatever its value). For a symmetric adjacency matrix the undirected
// edge count is (NNZ − DiagCount)/2 + DiagCount.
func (c *CSR) DiagCount() int {
	d := 0
	for i := 0; i < c.N; i++ {
		row := c.Indices[c.IndPtr[i]:c.IndPtr[i+1]]
		if _, ok := slices.BinarySearch(row, int32(i)); ok {
			d++
		}
	}
	return d
}

// At returns the (i, j) entry (zero if absent). O(log row-degree).
func (c *CSR) At(i, j int) float64 {
	if i < 0 || i >= c.N || j < 0 || j >= c.N {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range n=%d", i, j, c.N))
	}
	lo, hi := c.IndPtr[i], c.IndPtr[i+1]
	row := c.Indices[lo:hi]
	p := sort.Search(len(row), func(p int) bool { return row[p] >= int32(j) })
	if p < len(row) && row[p] == int32(j) {
		if c.Data == nil {
			return 1
		}
		return c.Data[lo+p]
	}
	return 0
}

// Degrees returns the weighted degree (row sum) of every row — the diagonal
// of the paper's degree matrix D.
func (c *CSR) Degrees() []float64 {
	return c.DegreesInto(make([]float64, c.N))
}

// DegreesInto is Degrees written into d[:N], which it returns; d must hold
// at least N values.
func (c *CSR) DegreesInto(d []float64) []float64 {
	d = d[:c.N]
	for i := 0; i < c.N; i++ {
		lo, hi := c.IndPtr[i], c.IndPtr[i+1]
		if c.Data == nil {
			d[i] = float64(hi - lo)
			continue
		}
		var s float64
		for _, w := range c.Data[lo:hi] {
			s += w
		}
		d[i] = s
	}
	return d
}

// ToDense materializes the matrix; intended for tests and tiny examples.
func (c *CSR) ToDense() *dense.Matrix {
	m := dense.New(c.N, c.N)
	for i := 0; i < c.N; i++ {
		for p := c.IndPtr[i]; p < c.IndPtr[i+1]; p++ {
			w := 1.0
			if c.Data != nil {
				w = c.Data[p]
			}
			m.Set(i, int(c.Indices[p]), w)
		}
	}
	return m
}

// MulDense returns W × X for a dense n×k matrix X, parallelized over row
// blocks. The result is a fresh n×k matrix.
func (c *CSR) MulDense(x *dense.Matrix) *dense.Matrix {
	out := dense.New(c.N, x.Cols)
	c.MulDenseInto(out, x)
	return out
}

// MulDenseInto computes out = W × X; out must not share storage with x (it
// panics if it does). The dispatch is by k alone, every path bit-identical
// to the flat scan (MulDenseIntoSimple): k ≥ 2 runs the register kernels,
// k = 1 the flat scan itself (mulDense).
func (c *CSR) MulDenseInto(out, x *dense.Matrix) {
	c.checkMulDenseShapes(out, x)
	c.mulDense(out, x)
}

// MulDenseRowsInto is MulDenseInto for an x and out that carry rows past N:
// it computes rows [0, N) of out and leaves the rest alone (no column of W
// reaches them in x). A delta overlay grown by AddNodes multiplies its base
// this way, on the same kernels and bit-identical to them.
func (c *CSR) MulDenseRowsInto(out, x *dense.Matrix) {
	if x.Rows < c.N || out.Rows < c.N || out.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: MulDenseRowsInto shapes: W is %d×%d, X %d×%d, out %d×%d",
			c.N, c.N, x.Rows, x.Cols, out.Rows, out.Cols))
	}
	checkNoAlias(out, x)
	c.mulDense(out, x)
}

// MulVec returns W × v for a length-n vector. Rows are independent sums, so
// past a size cutoff the scan runs row-parallel on the shared pool with
// bit-identical results — the ρ(W) Lanczos run takes this product on
// every compaction, which sits on the async-compact critical path.
func (c *CSR) MulVec(v []float64) []float64 {
	if len(v) != c.N {
		panic(fmt.Sprintf("sparse: MulVec length %d, want %d", len(v), c.N))
	}
	out := make([]float64, c.N)
	c.runVecRows(func(lo, hi int) { c.mulVecRows(out, v, lo, hi) })
	return out
}

// runVecRows runs a matrix–vector row kernel over every row, row-parallel
// on the shared pool past mulVecParallelNNZ.
func (c *CSR) runVecRows(rows func(lo, hi int)) {
	if c.NNZ() >= mulVecParallelNNZ {
		defaultPool.parallelRows(c.N, rows)
	} else {
		rows(0, c.N)
	}
}

// mulVecRows computes rows [lo, hi) of out = W × v, one flat scan per row.
// Interleaving four rows in independent accumulators, so their additions
// overlap, measured 5–13 % slower than this scan on 20k- and 200k-node
// graphs (one core of a 2.1 GHz Xeon): with rows of random length each
// extra lane adds a loop exit the branch predictor misses.
func (c *CSR) mulVecRows(out, v []float64, lo, hi int) {
	ip, ind, data := c.IndPtr, c.Indices, c.Data
	for i := lo; i < hi; i++ {
		var s float64
		start, end := ip[i], ip[i+1]
		if data == nil {
			for _, col := range ind[start:end] {
				s += v[col]
			}
		} else {
			for p := start; p < end; p++ {
				s += data[p] * v[ind[p]]
			}
		}
		out[i] = s
	}
}

// Mul returns the sparse product a × b. Used only by the explicit-Wℓ
// baseline of Figure 5b (the factorized path avoids it); intermediate
// densification is exactly the cost the paper's Algorithm 4.4 eliminates.
func Mul(a, b *CSR) (*CSR, error) {
	if a.N != b.N {
		return nil, fmt.Errorf("sparse: Mul dimension mismatch %d vs %d", a.N, b.N)
	}
	n := a.N
	indptr := make([]int, n+1)
	var indices []int32
	var data []float64
	acc := make([]float64, n)
	touched := make([]int32, 0, 256)
	for i := 0; i < n; i++ {
		touched = touched[:0]
		for p := a.IndPtr[i]; p < a.IndPtr[i+1]; p++ {
			aw := 1.0
			if a.Data != nil {
				aw = a.Data[p]
			}
			kcol := a.Indices[p]
			for q := b.IndPtr[kcol]; q < b.IndPtr[kcol+1]; q++ {
				bw := 1.0
				if b.Data != nil {
					bw = b.Data[q]
				}
				j := b.Indices[q]
				if acc[j] == 0 {
					touched = append(touched, j)
				}
				acc[j] += aw * bw
			}
		}
		slices.Sort(touched)
		for _, j := range touched {
			if acc[j] != 0 {
				indices = append(indices, j)
				data = append(data, acc[j])
			}
			acc[j] = 0
		}
		indptr[i+1] = len(indices)
	}
	return &CSR{N: n, IndPtr: indptr, Indices: indices, Data: data}, nil
}

// AddDiag returns a + diag(d) as a new CSR matrix (d may contain zeros).
func AddDiag(a *CSR, d []float64) (*CSR, error) {
	if len(d) != a.N {
		return nil, fmt.Errorf("sparse: AddDiag length %d, want %d", len(d), a.N)
	}
	coords := make([]Coord, 0, a.NNZ()+a.N)
	for i := 0; i < a.N; i++ {
		for p := a.IndPtr[i]; p < a.IndPtr[i+1]; p++ {
			w := 1.0
			if a.Data != nil {
				w = a.Data[p]
			}
			coords = append(coords, Coord{int32(i), a.Indices[p], w})
		}
		if d[i] != 0 {
			coords = append(coords, Coord{int32(i), int32(i), d[i]})
		}
	}
	return NewFromCoords(a.N, coords)
}

// Scale returns c·a as a new CSR matrix.
func Scale(a *CSR, c float64) *CSR {
	out := &CSR{N: a.N, IndPtr: a.IndPtr, Indices: a.Indices, Data: make([]float64, a.NNZ())}
	for i := range out.Data {
		w := 1.0
		if a.Data != nil {
			w = a.Data[i]
		}
		out.Data[i] = c * w
	}
	return out
}
