// Package hashimoto implements the 2m×2m non-backtracking edge-adjacency
// ("Hashimoto") matrix that prior work (paper §2.6) uses to reason about
// non-backtracking walks: one state per directed edge, with a transition
// (u→v) → (v→w) whenever w ≠ u.
//
// The paper's contribution is precisely that compatibility estimation does
// NOT need this augmented state space (Proposition 4.3 counts NB paths on
// the original n×n matrices). This package exists as the reference
// implementation the recurrence is validated against, and to quantify the
// blow-up the factorized approach avoids: the Hashimoto matrix has 2m
// states and O(m·(d−1)) nonzeros.
package hashimoto

import (
	"fmt"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// Matrix is the Hashimoto operator of an undirected graph.
type Matrix struct {
	// B is the 2m×2m edge-adjacency matrix.
	B *sparse.CSR
	// Tail and Head give, for each directed-edge state, its endpoints:
	// state s represents the directed edge Tail[s] → Head[s].
	Tail, Head []int32
}

// New builds the Hashimoto matrix of the graph behind w. States are the
// 2m directed versions of w's undirected edges, indexed by their position
// in the CSR structure (state p is the directed edge i→w.Indices[p] for p
// in row i's range). Self-loops are rejected: non-backtracking walks are
// not well defined on them.
func New(w *sparse.CSR) (*Matrix, error) {
	nnz := w.NNZ()
	tail := make([]int32, nnz)
	head := make([]int32, nnz)
	for i := 0; i < w.N; i++ {
		for p := w.IndPtr[i]; p < w.IndPtr[i+1]; p++ {
			if int(w.Indices[p]) == i {
				return nil, fmt.Errorf("hashimoto: self-loop at node %d", i)
			}
			tail[p] = int32(i)
			head[p] = w.Indices[p]
		}
	}
	// Transition (u→v) → (v→w) for every neighbor w of v with w ≠ u.
	var coords []sparse.Coord
	for s := 0; s < nnz; s++ {
		v := head[s]
		u := tail[s]
		for q := w.IndPtr[v]; q < w.IndPtr[v+1]; q++ {
			if w.Indices[q] == u {
				continue // backtracking
			}
			coords = append(coords, sparse.Coord{Row: int32(s), Col: int32(q), W: 1})
		}
	}
	b, err := sparse.NewFromCoords(nnz, coords)
	if err != nil {
		return nil, err
	}
	return &Matrix{B: b, Tail: tail, Head: head}, nil
}

// States returns the number of directed-edge states (2m).
func (h *Matrix) States() int { return len(h.Tail) }

// NBPathCounts returns, for each ℓ in 1..lmax, the n×n matrix of
// non-backtracking path counts computed through the augmented state space:
// count(i→j, ℓ) = Σ_{e: tail=i} (B^{ℓ−1} T_j)(e) where T_j selects states
// with head j. This is the expensive reference computation; it
// materializes n×2m intermediates and exists for validation and for
// quantifying the factorization's advantage.
func (h *Matrix) NBPathCounts(n, lmax int) ([]*dense.Matrix, error) {
	if lmax < 1 {
		return nil, fmt.Errorf("hashimoto: lmax=%d, want ≥ 1", lmax)
	}
	s := h.States()
	// state-indicator matrix S ∈ R^{s×n}: S[e][head(e)] = 1.
	indicator := dense.New(s, n)
	for e := 0; e < s; e++ {
		indicator.Set(e, int(h.Head[e]), 1)
	}
	out := make([]*dense.Matrix, lmax)
	cur := indicator.Clone() // B^{ℓ−1}·S, starting at ℓ=1
	for l := 1; l <= lmax; l++ {
		// counts[i][j] = Σ_{e: tail(e)=i} cur[e][j]
		counts := dense.New(n, n)
		for e := 0; e < s; e++ {
			i := int(h.Tail[e])
			crow := cur.Row(e)
			orow := counts.Row(i)
			for j, v := range crow {
				orow[j] += v
			}
		}
		out[l-1] = counts
		if l < lmax {
			cur = h.B.MulDense(cur)
		}
	}
	return out, nil
}
