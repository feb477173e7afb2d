package core

import (
	"fmt"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

// Normalization selects how the raw label-count matrices M⁽ℓ⁾ are turned
// into observed statistics matrices P̂⁽ℓ⁾ (Section 4.3).
type Normalization int

const (
	// Variant1 is the row-stochastic normalization diag(M1)⁻¹M (Eq. 9),
	// the paper's recommended default.
	Variant1 Normalization = iota + 1
	// Variant2 is the LGC-style symmetric normalization
	// diag(M1)^(−1/2)·M·diag(M1)^(−1/2) (Eq. 10).
	Variant2
	// Variant3 scales M so the average entry is 1/k (Eq. 11).
	Variant3
)

// Normalize applies the selected variant to a k×k statistics matrix.
func (v Normalization) Normalize(m *dense.Matrix) (*dense.Matrix, error) {
	switch v {
	case Variant1:
		return dense.RowNormalize(m), nil
	case Variant2:
		return dense.SymNormalize(m), nil
	case Variant3:
		return dense.ScaleNormalize(m), nil
	default:
		return nil, fmt.Errorf("core: unknown normalization variant %d", int(v))
	}
}

// SummaryOptions configures Summarize.
type SummaryOptions struct {
	// LMax is the maximum path length ℓmax (default 5, the paper's
	// recommended setting, Result 1).
	LMax int
	// NonBacktracking selects the consistent NB-path statistics of §4.5
	// (default in the paper; the full-path variant exists for Fig 5a).
	NonBacktracking bool
	// Variant selects the normalization (default Variant1).
	Variant Normalization
	// KeepN retains the n×k neighborhood matrices N⁽ℓ⁾ on the result so
	// ApplyEdgeDelta can maintain the sketches under streaming edge
	// mutations in o(1) per M⁽ℓ⁾ entry. Costs ℓmax extra n×k float64
	// matrices of residency.
	KeepN bool
}

func (o *SummaryOptions) defaults() {
	if o.LMax == 0 {
		o.LMax = 5
	}
	if o.Variant == 0 {
		o.Variant = Variant1
	}
}

// DefaultSummaryOptions returns ℓmax=5, non-backtracking, variant 1.
func DefaultSummaryOptions() SummaryOptions {
	return SummaryOptions{LMax: 5, NonBacktracking: true, Variant: Variant1}
}

// Summaries holds the factorized graph representations: for each path
// length ℓ ∈ [ℓmax], the raw k×k label-count matrix M⁽ℓ⁾ = XᵀW⁽ℓ⁾X and its
// normalized statistics matrix P̂⁽ℓ⁾. Their size is independent of the
// graph — this is the sketch all estimation runs on (Figure 2) — except
// when built with KeepN, which retains the n×k N⁽ℓ⁾ matrices so the
// sketches can track streaming edge mutations via ApplyEdgeDelta.
type Summaries struct {
	K    int
	LMax int
	M    []*dense.Matrix // M[ℓ−1] = M⁽ℓ⁾
	P    []*dense.Matrix // P[ℓ−1] = P̂⁽ℓ⁾

	// N (KeepN builds only) retains N[ℓ−1] = N⁽ℓ⁾, the n×k neighborhood
	// matrices of the recurrence, frozen at summarization time. Variant is
	// the normalization the P̂ matrices were produced with; ApplyEdgeDelta
	// re-applies it after updating M.
	N       []*dense.Matrix
	Variant Normalization
}

// Topology is the adjacency view Summarize actually needs: dimensions, a
// row-parallel dense multiply and weighted degrees. *sparse.CSR is the
// canonical implementation; internal/delta's overlay Graph satisfies it
// too, so a dirty streaming-mutation overlay can be sketched directly —
// summarization never forces a compaction.
type Topology interface {
	Dim() int
	MulDenseInto(out, x *dense.Matrix)
	Degrees() []float64
}

// Summarize computes the graph summaries of Algorithm 4.4 over a CSR; see
// SummarizeOn for the algorithm.
func Summarize(w *sparse.CSR, seed []int, k int, opts SummaryOptions) (*Summaries, error) {
	return SummarizeOn(w, seed, k, opts)
}

// SummarizeOn computes the graph summaries of Algorithm 4.4 in O(mkℓmax):
//
//	N⁽¹⁾ = WX,  N⁽²⁾ = WN⁽¹⁾ − DX,  N⁽ℓ⁾ = WN⁽ℓ⁻¹⁾ − (D−I)N⁽ℓ⁻²⁾
//	M⁽ℓ⁾ = XᵀN⁽ℓ⁾,  P̂⁽ℓ⁾ = normalize(M⁽ℓ⁾)
//
// (non-backtracking recurrence, Proposition 4.3). With
// opts.NonBacktracking = false it instead uses the plain powers
// N⁽ℓ⁾ = WN⁽ℓ⁻¹⁾, whose statistics are biased (Theorem 4.1) — kept for the
// Figure 5a comparison.
//
// seed is the sparse label vector (labels.Unlabeled for unknown nodes).
func SummarizeOn(w Topology, seed []int, k int, opts SummaryOptions) (*Summaries, error) {
	n := w.Dim()
	if len(seed) != n {
		return nil, fmt.Errorf("core: %d seed labels for %d nodes", len(seed), n)
	}
	if k < 2 {
		return nil, fmt.Errorf("core: k=%d, need at least 2 classes", k)
	}
	if opts.LMax < 0 {
		return nil, fmt.Errorf("core: negative path length ℓmax=%d", opts.LMax)
	}
	opts.defaults()
	if labels.NumLabeled(seed) == 0 {
		return nil, fmt.Errorf("core: no labeled nodes to summarize")
	}
	x, err := labels.Matrix(seed, k)
	if err != nil {
		return nil, err
	}
	deg := w.Degrees()

	s := &Summaries{K: k, LMax: opts.LMax, M: make([]*dense.Matrix, opts.LMax), P: make([]*dense.Matrix, opts.LMax), Variant: opts.Variant}
	if opts.KeepN {
		s.N = make([]*dense.Matrix, opts.LMax)
	}
	// N⁽ℓ⁾ needs only N⁽ℓ⁻¹⁾ and N⁽ℓ⁻²⁾ (N⁽⁰⁾ = X), and MulDenseInto
	// overwrites its output: unless the caller keeps the N⁽ℓ⁾, each one is
	// written over the matrix that just fell out of the recurrence, X
	// included, so three n×k matrices serve any ℓmax.
	var prev, spare *dense.Matrix // N⁽ℓ⁻²⁾; a matrix the recurrence is done with
	cur := x                      // N⁽ℓ⁻¹⁾
	for l := 1; l <= opts.LMax; l++ {
		next := spare
		if next == nil {
			next = dense.New(n, k)
		}
		w.MulDenseInto(next, cur)
		if opts.NonBacktracking && l == 2 {
			// Subtract DX: row i scaled by degree of i.
			for i := 0; i < n; i++ {
				if seed[i] == labels.Unlabeled {
					continue // X row is zero
				}
				next.Data[i*k+seed[i]] -= deg[i]
			}
		} else if opts.NonBacktracking && l > 2 {
			// Subtract (D−I)·N⁽ℓ⁻²⁾.
			for i := 0; i < n; i++ {
				c := deg[i] - 1
				if c == 0 {
					continue
				}
				nrow := next.Data[i*k : (i+1)*k]
				prow := prev.Data[i*k : (i+1)*k]
				for j := range nrow {
					nrow[j] -= c * prow[j]
				}
			}
		}
		if opts.KeepN {
			s.N[l-1] = next
		} else {
			spare = prev
		}
		prev, cur = cur, next

		// M⁽ℓ⁾ = XᵀN⁽ℓ⁾: only labeled rows of X contribute.
		m := dense.New(k, k)
		for i, c := range seed {
			if c == labels.Unlabeled {
				continue
			}
			mrow := m.Row(c)
			nrow := next.Data[i*k : (i+1)*k]
			for j, v := range nrow {
				mrow[j] += v
			}
		}
		s.M[l-1] = m
		p, err := opts.Variant.Normalize(m)
		if err != nil {
			return nil, err
		}
		s.P[l-1] = p
	}
	return s, nil
}

// walkRow returns the length-l walk-statistics row for node: the one-hot
// X row for l = 0, the retained N⁽ˡ⁾ row otherwise. Nodes added after the
// summarization (beyond the retained matrices) and unlabeled l = 0 rows
// are zero; buf is scratch for those cases.
func (s *Summaries) walkRow(l, node int, seed []int, buf []float64) []float64 {
	if l == 0 {
		for j := range buf {
			buf[j] = 0
		}
		if c := seed[node]; c != labels.Unlabeled {
			buf[c] = 1
		}
		return buf
	}
	if nm := s.N[l-1]; node < nm.Rows {
		return nm.Row(node)
	}
	for j := range buf {
		buf[j] = 0
	}
	return buf
}

// ApplyEdgeDelta folds one undirected edge-weight change Δw on (u, v)
// into the retained sketches in O(ℓmax²·k²) — o(1) per M⁽ℓ⁾ entry,
// independent of n and m. The ℓ = 1 update is exact:
//
//	ΔM⁽¹⁾ = Δw·(x_u ⊗ x_v + x_v ⊗ x_u)
//
// For ℓ ≥ 2 it applies the first-order walk expansion
// Δ(W⁽ℓ⁾) ≈ Σ_{a+b=ℓ−1} W⁽a⁾·ΔW·W⁽b⁾ using the retained N⁽ℓ⁾ = W⁽ℓ⁾X:
//
//	ΔM⁽ℓ⁾ ≈ Δw·Σ_{a+b=ℓ−1} (N⁽a⁾_u ⊗ N⁽b⁾_v + N⁽a⁾_v ⊗ N⁽b⁾_u),  N⁽⁰⁾ = X
//
// which drops the O(Δw²) cross terms and the degree shift in the
// non-backtracking correction; the owner bounds the accumulated |Δw|
// drift and re-summarizes past a threshold. The N matrices themselves are
// left frozen (their staleness is the same second order). P̂ matrices are
// re-normalized from the updated M. seed must be the label vector the
// summaries were computed at.
func (s *Summaries) ApplyEdgeDelta(seed []int, u, v int, dw float64) error {
	if s.N == nil {
		return fmt.Errorf("core: summaries built without KeepN cannot apply edge deltas")
	}
	if dw == 0 {
		return nil
	}
	bufA := make([]float64, s.K)
	bufB := make([]float64, s.K)
	for l := 1; l <= s.LMax; l++ {
		m := s.M[l-1]
		for a := 0; a <= l-1; a++ {
			b := l - 1 - a
			addOuter(m, s.walkRow(a, u, seed, bufA), s.walkRow(b, v, seed, bufB), dw)
			if u != v {
				addOuter(m, s.walkRow(a, v, seed, bufA), s.walkRow(b, u, seed, bufB), dw)
			}
		}
		p, err := s.Variant.Normalize(m)
		if err != nil {
			return err
		}
		s.P[l-1] = p
	}
	return nil
}

// addOuter accumulates m += c·(a ⊗ b) for k-vectors a, b.
func addOuter(m *dense.Matrix, a, b []float64, c float64) {
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := m.Row(i)
		s := c * av
		for j, bv := range b {
			row[j] += s * bv
		}
	}
}

// GoldStandard measures the "true" compatibility matrix from a fully (or
// maximally) labeled graph: the row-normalized neighbor label-count matrix
// |XᵀWX|_row (Section 5.3: "if we know all labels in a graph, then we can
// simply measure the relative frequencies of classes between neighboring
// nodes").
func GoldStandard(w *sparse.CSR, truth []int, k int) (*dense.Matrix, error) {
	s, err := Summarize(w, truth, k, SummaryOptions{LMax: 1, Variant: Variant1})
	if err != nil {
		return nil, err
	}
	return s.P[0], nil
}

// ExplicitNBPowers returns W⁽ℓ⁾NB for ℓ = 1..lmax as explicit sparse
// matrices via the recurrence of Proposition 4.3:
//
//	W⁽¹⁾ = W, W⁽²⁾ = W² − D, W⁽ℓ⁾ = W·W⁽ℓ⁻¹⁾ − (D−I)·W⁽ℓ⁻²⁾.
//
// This is the expensive strategy Figure 5b benchmarks against the
// factorized Algorithm 4.4; intermediate results densify quickly.
func ExplicitNBPowers(w *sparse.CSR, lmax int) ([]*sparse.CSR, error) {
	if lmax < 1 {
		return nil, fmt.Errorf("core: lmax=%d, want ≥ 1", lmax)
	}
	deg := w.Degrees()
	out := make([]*sparse.CSR, lmax)
	out[0] = w
	if lmax == 1 {
		return out, nil
	}
	w2, err := sparse.Mul(w, w)
	if err != nil {
		return nil, err
	}
	negD := make([]float64, w.N)
	for i, d := range deg {
		negD[i] = -d
	}
	out[1], err = sparse.AddDiag(w2, negD)
	if err != nil {
		return nil, err
	}
	for l := 3; l <= lmax; l++ {
		prod, err := sparse.Mul(w, out[l-2])
		if err != nil {
			return nil, err
		}
		// prod − (D−I)·out[l−3]: scale rows of the older matrix.
		older := out[l-3]
		coords := make([]sparse.Coord, 0, prod.NNZ()+older.NNZ())
		for i := 0; i < prod.N; i++ {
			for p := prod.IndPtr[i]; p < prod.IndPtr[i+1]; p++ {
				wv := 1.0
				if prod.Data != nil {
					wv = prod.Data[p]
				}
				coords = append(coords, sparse.Coord{Row: int32(i), Col: prod.Indices[p], W: wv})
			}
			c := deg[i] - 1
			if c == 0 {
				continue
			}
			for p := older.IndPtr[i]; p < older.IndPtr[i+1]; p++ {
				wv := 1.0
				if older.Data != nil {
					wv = older.Data[p]
				}
				coords = append(coords, sparse.Coord{Row: int32(i), Col: older.Indices[p], W: -c * wv})
			}
		}
		out[l-1], err = sparse.NewFromCoords(prod.N, coords)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
