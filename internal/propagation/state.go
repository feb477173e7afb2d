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
	return NewStateWith(w, h, opts, nil, nil)
}

// NewStateWith is NewState on caller-owned iteration buffers f and fh,
// each n×k with any contents (nil ones are allocated): a caller that
// recycles them allocates no n×k matrix per State. Run's result aliases f.
func NewStateWith(w *sparse.CSR, h *dense.Matrix, opts LinBPOptions, f, fh *dense.Matrix) (*State, error) {
	if w.N == 0 {
		return nil, fmt.Errorf("propagation: empty graph")
	}
	return newState(w, h, opts, w.SpectralRadiusCached(), f, fh)
}

// NewStateOn is NewState over an arbitrary RowIterator adjacency with a
// caller-supplied ρ(W) — a delta overlay with the ρ pinned at its last
// compaction scales like the serving engine's residual solver instead of
// re-running the ρ(W) eigensolve over a moving graph.
func NewStateOn(w exec.RowIterator, h *dense.Matrix, opts LinBPOptions, rhoW float64) (*State, error) {
	return newState(w, h, opts, rhoW, nil, nil)
}

func newState(w exec.RowIterator, h *dense.Matrix, opts LinBPOptions, rhoW float64, f, fh *dense.Matrix) (*State, error) {
	if h.Rows != h.Cols {
		return nil, fmt.Errorf("propagation: H is %d×%d, want square", h.Rows, h.Cols)
	}
	n, k := w.Dim(), h.Rows
	if n == 0 {
		return nil, fmt.Errorf("propagation: empty graph")
	}
	if opts.S < 0 {
		return nil, fmt.Errorf("propagation: convergence parameter s=%v must be positive", opts.S)
	}
	if opts.Iterations < 0 {
		return nil, fmt.Errorf("propagation: negative iteration count %d", opts.Iterations)
	}
	if f == nil {
		f = dense.New(n, k)
	}
	if fh == nil {
		fh = dense.New(n, k)
	}
	opts.defaults()
	s := &State{w: w, n: n, rhoW: rhoW, opts: opts, k: k, f: f, fh: fh}
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
// O(nk²·J) flat work in place of J products, done in one pass
// (hornerRows) that goes on to round J + 1's flat pass; the loop then runs
// the remaining rounds. With no walks this is Run. Centering needs H̃'s
// columns to sum to zero, which holds for any doubly stochastic H
// (core.FromFree builds every estimate that way); an H whose columns do
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
	it := len(walks)
	if it == 0 {
		clear(s.f.Data)
	} else {
		// The pass writes only round J + 1's F·H̃; that round's SpMM then
		// writes G over f.
		s.run.Rows(s.n, func(lo, hi int) {
			var buf [4][]float64
			ws := buf[:0]
			for _, p := range walks {
				ws = append(ws, p.Data[lo*k:hi*k])
			}
			hornerRows(s.fh.Data[lo*k:hi*k], x.Data[lo*k:hi*k], ws, s.hScaled.Data, c, k)
		})
		exec.SpMMRound(s.w, s.f, s.fh)
		it++
	}
	for ; it < s.opts.Iterations; it++ {
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

// hornerRows is RunFrom's start over k-wide rows stored back to back.
// From the walks ws[j] = Wʲ⁺¹X it forms, with MulRowsH's arithmetic,
//
//	G = ((…(ws[J−1]·H̃ + ws[J−2])·H̃ + …) + ws[0])·H̃,
//
// then goes on to the next round's flat pass and writes only its
// dst = ((x − c) + G)·H̃, in exec.FoldRound's arithmetic. Three walks at
// k = 3 and k = 5 keep each row in registers through every step; any
// other case runs the steps through MulRowsH on blocks of rows on the
// stack. All leave the same bits. dst must not alias x or a walk.
func hornerRows(dst, x []float64, ws [][]float64, hs []float64, c float64, k int) {
	x = x[:len(dst)]
	switch {
	case k == 3 && len(ws) == 3:
		h := (*[9]float64)(hs)
		p1, p2, p3 := ws[0][:len(dst)], ws[1][:len(dst)], ws[2][:len(dst)]
		for i := 0; i+3 <= len(dst); i += 3 {
			a, b, d := p3[i], p3[i+1], p3[i+2]
			a, b, d = a*h[0]+b*h[3]+d*h[6]+p2[i], a*h[1]+b*h[4]+d*h[7]+p2[i+1], a*h[2]+b*h[5]+d*h[8]+p2[i+2]
			a, b, d = a*h[0]+b*h[3]+d*h[6]+p1[i], a*h[1]+b*h[4]+d*h[7]+p1[i+1], a*h[2]+b*h[5]+d*h[8]+p1[i+2]
			a, b, d = a*h[0]+b*h[3]+d*h[6], a*h[1]+b*h[4]+d*h[7], a*h[2]+b*h[5]+d*h[8]
			a, b, d = (x[i]-c)+a, (x[i+1]-c)+b, (x[i+2]-c)+d
			dst[i], dst[i+1], dst[i+2] = a*h[0]+b*h[3]+d*h[6], a*h[1]+b*h[4]+d*h[7], a*h[2]+b*h[5]+d*h[8]
		}
	case k == 5 && len(ws) == 3:
		h := (*[25]float64)(hs)
		p1, p2, p3 := ws[0][:len(dst)], ws[1][:len(dst)], ws[2][:len(dst)]
		for i := 0; i+5 <= len(dst); i += 5 {
			t := *(*[5]float64)(p3[i:])
			for _, p := range [2]*[5]float64{(*[5]float64)(p2[i:]), (*[5]float64)(p1[i:])} {
				s0, s1, s2, s3, s4 := t[0], t[1], t[2], t[3], t[4]
				for j := 0; j < 5; j++ {
					t[j] = s0*h[j] + s1*h[5+j] + s2*h[10+j] + s3*h[15+j] + s4*h[20+j] + p[j]
				}
			}
			s0, s1, s2, s3, s4 := t[0], t[1], t[2], t[3], t[4]
			for j := 0; j < 5; j++ {
				t[j] = s0*h[j] + s1*h[5+j] + s2*h[10+j] + s3*h[15+j] + s4*h[20+j]
			}
			xs, d := (*[5]float64)(x[i:]), (*[5]float64)(dst[i:])
			s0, s1, s2, s3, s4 = (xs[0]-c)+t[0], (xs[1]-c)+t[1], (xs[2]-c)+t[2], (xs[3]-c)+t[3], (xs[4]-c)+t[4]
			for j := 0; j < 5; j++ {
				d[j] = s0*h[j] + s1*h[5+j] + s2*h[10+j] + s3*h[15+j] + s4*h[20+j]
			}
		}
	default:
		var stack [2][128]float64
		bufs := [2][]float64{stack[0][:], stack[1][:]}
		if k > len(stack[0]) {
			bufs = [2][]float64{make([]float64, k), make([]float64, k)}
		}
		blk := len(bufs[0]) / k * k
		for lo := 0; lo < len(dst); lo += blk {
			hi := min(lo+blk, len(dst))
			// The steps alternate the two blocks; G lands in the first.
			src := ws[len(ws)-1][lo:hi]
			for j := len(ws) - 1; j > 0; j-- {
				t := bufs[j&1][:hi-lo]
				exec.MulRowsH(t, src, hs, k)
				for i, v := range ws[j-1][lo:hi] {
					t[i] += v
				}
				src = t
			}
			g := bufs[0][:hi-lo]
			exec.MulRowsH(g, src, hs, k)
			for i, v := range x[lo:hi] {
				g[i] = (v - c) + g[i]
			}
			exec.MulRowsH(dst[lo:hi], g, hs, k)
		}
	}
}

// checkWalks refuses walks RunFrom cannot start from: as many as the
// iteration count or more (the start runs the next round's flat pass), the
// wrong shape, or (centered) an H̃ whose columns do
// not sum to zero.
func (s *State) checkWalks(walks []*dense.Matrix) error {
	if len(walks) == 0 {
		return nil
	}
	if len(walks) >= s.opts.Iterations {
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
