package propagation

import (
	"fmt"
	"math"

	"factorgraph/internal/dense"
	"factorgraph/internal/exec"
	"factorgraph/internal/sparse"
)

// State is a reusable LinBP execution context bound to one graph W and one
// compatibility matrix H. Everything that does not depend on the
// explicit-belief matrix X is computed once — the centered and ε-scaled H̃
// (Eq. 2), the spectral radius ρ(W) via the matrix-level cache, and the two
// n×k iteration buffers — so repeated propagation runs allocate no matrix.
//
// A State is NOT safe for concurrent use: it has a single owner. The graph
// and H must not be mutated while the State is live.
type State struct {
	w    exec.RowIterator
	n    int
	rhoW float64 // ρ(W) the ε-scaling was derived from
	opts LinBPOptions
	k    int

	hScaled *dense.Matrix // centered (if opts.Center) and ε-scaled H̃

	// f holds G = F − X̃ while the rounds run and F after the last one;
	// fh is the round's F·H̃.
	f, fh *dense.Matrix

	run exec.Runner // shared execution core; every round goes through it
}

// NewState validates shapes, computes ε = s/(ρ(W)·ρ(H̃)) once, and
// allocates the iteration buffers for an n×k propagation.
func NewState(w *sparse.CSR, h *dense.Matrix, opts LinBPOptions) (*State, error) {
	if w.N == 0 {
		return nil, fmt.Errorf("propagation: empty graph")
	}
	return NewStateOn(w, h, opts, w.SpectralRadiusCached())
}

// NewStateOn is NewState over an arbitrary RowIterator adjacency with a
// caller-supplied ρ(W) — a delta overlay with the ρ pinned at its last
// compaction scales like the serving engine's residual solver instead of
// re-running the ρ(W) eigensolve over a moving graph.
func NewStateOn(w exec.RowIterator, h *dense.Matrix, opts LinBPOptions, rhoW float64) (*State, error) {
	if h.Rows != h.Cols {
		return nil, fmt.Errorf("propagation: H is %d×%d, want square", h.Rows, h.Cols)
	}
	n := w.Dim()
	if n == 0 {
		return nil, fmt.Errorf("propagation: empty graph")
	}
	if opts.S < 0 {
		return nil, fmt.Errorf("propagation: convergence parameter s=%v must be positive", opts.S)
	}
	if opts.Iterations < 0 {
		return nil, fmt.Errorf("propagation: negative iteration count %d", opts.Iterations)
	}
	opts.defaults()
	s := &State{
		w:    w,
		n:    n,
		rhoW: rhoW,
		opts: opts,
		k:    h.Rows,
		f:    dense.New(n, h.Rows),
		fh:   dense.New(n, h.Rows),
	}
	if err := s.setH(h); err != nil {
		return nil, err
	}
	return s, nil
}

// setH (re)computes the centered, ε-scaled compatibility matrix. ρ(W) is
// the state's pinned value (cached on the CSR for frozen graphs), so
// swapping H on a live engine never re-runs the ρ(W) eigensolve over the
// graph.
func (s *State) setH(h *dense.Matrix) error {
	hUse := h.Clone()
	if s.opts.Center {
		hUse = dense.AddScalar(hUse, -1.0/float64(s.k))
	}
	eps, err := ScalingFactorWithRho(s.rhoW, hUse, s.opts.S)
	if err != nil {
		return err
	}
	s.hScaled = dense.Scale(hUse, eps)
	return nil
}

// SetH swaps the compatibility matrix (same k) without reallocating
// buffers or recomputing ρ(W). Only safe on a single-owner State: a
// concurrent Run would read H̃ mid-swap.
func (s *State) SetH(h *dense.Matrix) error {
	if h.Rows != s.k || h.Cols != s.k {
		return fmt.Errorf("propagation: SetH got %d×%d, state is k=%d", h.Rows, h.Cols, s.k)
	}
	return s.setH(h)
}

// K returns the class count the state was built for.
func (s *State) K() int { return s.k }

// Run iterates F ← X̃ + εWFH̃ and returns the final belief matrix. The
// returned matrix aliases the state's buffer: it is valid until the next
// Run and must be cloned to outlive it. x is not mutated.
//
// The rounds iterate G = F − X̃ ← εW·(X̃ + G)·H̃ on the shared execution
// core (exec.Runner.FoldRound: one flat pass, one SpMM), and X̃ is added
// once after the last. Each F entry is formed as (x − c) + G, the same
// additions in the same order as iterating F itself, so the beliefs are
// bit-identical to that loop's.
func (s *State) Run(x *dense.Matrix) (*dense.Matrix, error) {
	return s.RunFrom(x, nil)
}

// RunFrom is Run entered at round J = len(walks), given the plain walks
// walks[j−1] = WʲX (core.SummarizeWalks derives them from the sketch's
// own). Round t of the loop leaves F⁽ᵗ⁾ = Σ_{j≤t} WʲX̃H̃ʲ, and X̃H̃ = XH̃
// once 𝟙ᵀH̃ = 0, so the first J rounds multiply out as
//
//	F⁽ᴶ⁾ = X̃ + ((…(P_J·H̃ + P_{J−1})·H̃ + …) + P₁)·H̃,  P_j = WʲX,
//
// O(nk²·J) flat work in place of J products; the loop then runs the
// remaining Iterations − J rounds. With no walks this is Run. Centering
// needs H̃'s columns to sum to zero, which holds for any doubly stochastic
// H (core.FromFree builds every estimate that way); an H whose columns do
// not sum to one is refused.
func (s *State) RunFrom(x *dense.Matrix, walks []*dense.Matrix) (*dense.Matrix, error) {
	if x.Rows != s.n || x.Cols != s.k {
		return nil, fmt.Errorf("propagation: X is %d×%d, state wants %d×%d", x.Rows, x.Cols, s.n, s.k)
	}
	if err := s.checkWalks(walks); err != nil {
		return nil, err
	}
	k := s.k
	c := 0.0
	if s.opts.Center {
		c = 1.0 / float64(k)
	}
	if len(walks) == 0 {
		clear(s.f.Data)
	} else {
		// The Horner steps alternate f and fh so that the last (j = 0)
		// lands in f.
		s.run.Rows(s.n, func(lo, hi int) {
			bufs := [2][]float64{s.f.Data[lo*k : hi*k], s.fh.Data[lo*k : hi*k]}
			t := walks[len(walks)-1].Data[lo*k : hi*k]
			for j := len(walks) - 1; j >= 0; j-- {
				dst := bufs[j&1]
				exec.MulRowsH(dst, t, s.hScaled.Data, k)
				if j > 0 {
					for i, v := range walks[j-1].Data[lo*k : hi*k] {
						dst[i] += v
					}
				}
				t = dst
			}
		})
	}
	for it := len(walks); it < s.opts.Iterations; it++ {
		s.run.FoldRound(s.w, x, s.f, s.fh, s.hScaled, c)
	}
	s.run.Rows(s.n, func(lo, hi int) {
		f := s.f.Data[lo*k : hi*k]
		for i, v := range x.Data[lo*k : hi*k] {
			f[i] = (v - c) + f[i]
		}
	})
	return s.f, nil
}

// checkWalks refuses walks RunFrom cannot start from: more than the
// iteration count, the wrong shape, or (centered) an H̃ whose columns do
// not sum to zero.
func (s *State) checkWalks(walks []*dense.Matrix) error {
	if len(walks) == 0 {
		return nil
	}
	if len(walks) > s.opts.Iterations {
		return fmt.Errorf("propagation: %d walks for %d iterations", len(walks), s.opts.Iterations)
	}
	for _, p := range walks {
		if p.Rows != s.n || p.Cols != s.k {
			return fmt.Errorf("propagation: walk is %d×%d, state wants %d×%d", p.Rows, p.Cols, s.n, s.k)
		}
	}
	if s.opts.Center {
		scale := dense.MaxAbs(s.hScaled)
		for _, c := range dense.ColSums(s.hScaled) {
			if math.Abs(c) > 1e-9*scale {
				return fmt.Errorf("propagation: H's columns do not sum to one; cannot start from walks")
			}
		}
	}
	return nil
}

// RunLabels is Run followed by the row-argmax label(·) operator.
func (s *State) RunLabels(x *dense.Matrix) ([]int, error) {
	f, err := s.Run(x)
	if err != nil {
		return nil, err
	}
	return dense.ArgmaxRows(f), nil
}
