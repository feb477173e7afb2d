package exec

import "factorgraph/internal/dense"

// RowIterator is the adjacency access every execution kernel needs: row
// iteration for the push and scatter loops and the dense multiply for sweeps.
// *sparse.CSR is the canonical frozen implementation; internal/delta's
// copy-on-write overlay is the mutable one, so a kernel written against
// this interface serves streaming topology mutations transparently.
//
// The contract is deliberately row-granular: Row returns the full adjacency
// row as two slices (weights nil means implicit all-ones), so the per-edge
// inner loops stay branch-light slice scans and the interface cost is one
// dynamic call per row, not per edge. Returned slices may alias internal
// storage and must not be mutated or retained across a mutation of the
// underlying matrix; every caller in this repository reads them under the
// lock that freezes the topology.
type RowIterator interface {
	// Dim returns the node count n (the matrix is n×n).
	Dim() int
	// NNZ returns the number of stored entries.
	NNZ() int
	// Row returns node u's column indices (sorted) and weights; a nil
	// weight slice means every stored entry is 1.
	Row(u int) (cols []int32, weights []float64)
	// MulDenseInto computes out = W × X for a dense n×k matrix X. out
	// must not alias x.
	MulDenseInto(out, x *dense.Matrix)
}
