// Package core implements the paper's primary contribution: estimating the
// k×k class-compatibility matrix H from a sparsely labeled graph.
//
// It provides the free-parameter encoding of symmetric doubly-stochastic
// matrices (Eq. 6), the factorized non-backtracking path summaries
// (Propositions 4.3/4.5, Algorithm 4.4), and the estimators LCE (§4.2),
// MCE (§4.3), DCE/DCEr (§4.4–4.8), the Holdout baseline (§4.1) and the
// heuristic baseline (Appendix E.1).
package core

import (
	"fmt"

	"factorgraph/internal/dense"
)

// NumFree returns k* = k(k−1)/2, the number of free parameters of a
// symmetric doubly-stochastic k×k matrix.
func NumFree(k int) int { return k * (k - 1) / 2 }

// freeIndex maps a lower-triangular position (i,j) with j ≤ i ≤ k−2 to its
// position in the free-parameter vector, following the paper's row-major
// enumeration h1 = H00; h2, h3 = H10, H11; …
func freeIndex(i, j int) int { return i*(i+1)/2 + j }

// FromFree reconstructs the full k×k matrix H from its k* free parameters
// using the symmetry and double-stochasticity conditions of Eq. 6.
func FromFree(h []float64, k int) (*dense.Matrix, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: k=%d, need at least 2 classes", k)
	}
	if len(h) != NumFree(k) {
		return nil, fmt.Errorf("core: %d free parameters for k=%d, want %d", len(h), k, NumFree(k))
	}
	m := dense.New(k, k)
	fillFromFree(m, h)
	return m, nil
}

// fillFromFree overwrites the k×k matrix m with the H of FromFree; h must
// hold NumFree(k) parameters.
func fillFromFree(m *dense.Matrix, h []float64) {
	k := m.Rows
	last := k - 1
	// Free block: rows/cols 0..k−2.
	for i := 0; i < last; i++ {
		for j := 0; j <= i; j++ {
			v := h[freeIndex(i, j)]
			m.Data[i*k+j] = v
			m.Data[j*k+i] = v
		}
	}
	// Last column and row from row-stochasticity, H[i][k−1] = 1 − Σ_{ℓ<k−1} H[i][ℓ];
	// bottom-right corner, H[k−1][k−1] = 2 − k + Σ_{ℓ,r<k−1} H[ℓ][r].
	total := 0.0
	for i := 0; i < last; i++ {
		s := 0.0
		for _, v := range m.Data[i*k : i*k+last] {
			s += v
			total += v
		}
		m.Data[i*k+last] = 1 - s
		m.Data[last*k+i] = 1 - s
	}
	m.Data[last*k+last] = 2 - float64(k) + total
}

// ToFree extracts the k* free parameters from a symmetric doubly-stochastic
// matrix (the lower triangle of its leading (k−1)×(k−1) block).
func ToFree(h *dense.Matrix) ([]float64, error) {
	if h.Rows != h.Cols {
		return nil, fmt.Errorf("core: H is %d×%d, want square", h.Rows, h.Cols)
	}
	k := h.Rows
	if k < 2 {
		return nil, fmt.Errorf("core: k=%d, need at least 2 classes", k)
	}
	out := make([]float64, NumFree(k))
	for i := 0; i < k-1; i++ {
		for j := 0; j <= i; j++ {
			out[freeIndex(i, j)] = h.At(i, j)
		}
	}
	return out, nil
}

// UniformFree returns the free-parameter vector of the uniform matrix with
// every entry 1/k — the paper's optimization starting point (§4.4).
func UniformFree(k int) []float64 {
	h := make([]float64, NumFree(k))
	for i := range h {
		h[i] = 1 / float64(k)
	}
	return h
}

// Uniform returns the k×k matrix with every entry 1/k.
func Uniform(k int) *dense.Matrix {
	return dense.Constant(k, k, 1/float64(k))
}

// ProjectGradient contracts a full-matrix gradient G = ∂E/∂H (entries
// treated as independent) through the structure matrix S of Proposition 4.7,
// yielding the gradient with respect to the k* free parameters.
func ProjectGradient(g *dense.Matrix) []float64 {
	return projectGradientInto(make([]float64, NumFree(g.Rows)), g)
}

// projectGradientInto is ProjectGradient into out, which must hold
// NumFree(k) entries.
func projectGradientInto(out []float64, g *dense.Matrix) []float64 {
	k := g.Rows
	last := k - 1
	d := g.Data
	corner := d[last*k+last]
	for i := 0; i < last; i++ {
		for j := 0; j < i; j++ {
			out[freeIndex(i, j)] = d[i*k+j] + d[j*k+i] -
				d[i*k+last] - d[last*k+j] -
				d[j*k+last] - d[last*k+i] +
				2*corner
		}
		out[freeIndex(i, i)] = d[i*k+i] - d[i*k+last] - d[last*k+i] + corner
	}
	return out
}

// IsSymmetricDoublyStochastic reports whether h is symmetric with unit row
// sums within tolerance tol (entries may be negative during optimization;
// only the equality constraints are checked, as in the paper).
func IsSymmetricDoublyStochastic(h *dense.Matrix, tol float64) bool {
	if h.Rows != h.Cols {
		return false
	}
	k := h.Rows
	for i := 0; i < k; i++ {
		s := 0.0
		for j := 0; j < k; j++ {
			s += h.At(i, j)
			if diff := h.At(i, j) - h.At(j, i); diff > tol || diff < -tol {
				return false
			}
		}
		if d := s - 1; d > tol || d < -tol {
			return false
		}
	}
	return true
}

// HFromSkew builds the paper's parametric 3-class compatibility matrix for
// skew h (Section 5): H = [[1,h,1],[h,1,1],[1,1,h]]/(2+h). For example
// h=8 gives [[.1,.8,.1],[.8,.1,.1],[.1,.1,.8]].
func HFromSkew(h float64) *dense.Matrix {
	d := 2 + h
	return dense.FromRows([][]float64{
		{1 / d, h / d, 1 / d},
		{h / d, 1 / d, 1 / d},
		{1 / d, 1 / d, h / d},
	})
}

// HPlanted builds a k-class generalization of the skewed matrix: a
// permutation-like pattern with one "high" entry h per row (off-diagonal
// pairs for the first ⌊k/2⌋·2 classes, diagonal for a trailing odd class),
// low entries 1 elsewhere, normalized to doubly stochastic. For k=3 it
// reproduces HFromSkew.
func HPlanted(k int, h float64) *dense.Matrix {
	m := dense.Constant(k, k, 1)
	for c := 0; c+1 < k; c += 2 {
		m.Set(c, c+1, h)
		m.Set(c+1, c, h)
	}
	if k%2 == 1 {
		m.Set(k-1, k-1, h)
	}
	// Each row has exactly one h and k−1 ones, so a single scale makes it
	// doubly stochastic.
	dense.ScaleInPlace(m, 1/(float64(k-1)+h))
	return m
}
