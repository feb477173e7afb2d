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
// (Eq. 2), the spectral radius ρ(W) via the matrix-level cache, and the
// F/FH/WFH iteration buffers — so repeated propagation runs allocate
// nothing beyond the label scratch.
//
// A State is NOT safe for concurrent use: callers that serve parallel
// queries keep a pool of States (the Engine in the facade does exactly
// that). The graph and H must not be mutated while the State is live.
type State struct {
	w    exec.RowIterator
	n    int
	rhoW float64 // ρ(W) the ε-scaling was derived from
	opts LinBPOptions
	k    int

	hScaled *dense.Matrix // centered (if opts.Center) and ε-scaled H̃
	h2      *dense.Matrix // H̃² for echo cancellation, nil otherwise
	deg     []float64     // degrees for echo cancellation, nil otherwise

	x        *dense.Matrix // centered copy of the caller's X
	f        *dense.Matrix // belief iterate, returned by Run
	fh, wfh  *dense.Matrix
	echo     *dense.Matrix
	cur, prv []int // label-stability scratch

	run exec.Runner // shared execution core; all dense rounds go through it
}

// NewState validates shapes, computes ε = s/(ρ(W)·ρ(H̃)) once, and
// allocates the iteration buffers for an n×k propagation.
func NewState(w *sparse.CSR, h *dense.Matrix, opts LinBPOptions) (*State, error) {
	iters := opts.SpectralIters
	if iters <= 0 {
		iters = 50
	}
	if w.N == 0 {
		return nil, fmt.Errorf("propagation: empty graph")
	}
	return NewStateOn(w, h, opts, w.SpectralRadiusCached(iters))
}

// NewStateOn is NewState over an arbitrary RowIterator adjacency with a
// caller-supplied ρ(W) — a delta overlay with the ρ pinned at its last
// compaction scales like the serving engine's residual solver instead of
// re-running a power iteration over a moving graph.
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
		x:    dense.New(n, h.Rows),
		f:    dense.New(n, h.Rows),
		fh:   dense.New(n, h.Rows),
		wfh:  dense.New(n, h.Rows),
	}
	if opts.EchoCancellation {
		s.echo = dense.New(n, h.Rows)
		s.deg = rowDegrees(w)
	}
	if err := s.setH(h); err != nil {
		return nil, err
	}
	return s, nil
}

// rowDegrees computes weighted degrees through the row iterator.
func rowDegrees(w exec.RowIterator) []float64 {
	d := make([]float64, w.Dim())
	for i := range d {
		cols, wts := w.Row(i)
		if wts == nil {
			d[i] = float64(len(cols))
			continue
		}
		var s float64
		for _, v := range wts {
			s += v
		}
		d[i] = s
	}
	return d
}

// setH (re)computes the centered, ε-scaled compatibility matrix. ρ(W) is
// the state's pinned value (cached on the CSR for frozen graphs), so
// swapping H on a live engine never re-runs the power iteration over the
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
	if s.opts.EchoCancellation {
		s.h2 = dense.Mul(s.hScaled, s.hScaled)
	}
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

// Run iterates F ← X + εWFH̃ and returns the final belief matrix. The
// returned matrix aliases the state's buffer: it is valid until the next
// Run and must be cloned to outlive it. x is not mutated.
//
// Every round runs on the shared execution core (internal/exec): the dense
// products and the fused per-row belief update are row-parallel on the same
// worker pool the residual solver's saturated drains use.
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
// remaining Iterations − J rounds (label stability counts from there).
// With no walks this is Run. Centering needs H̃'s columns to sum to zero,
// which holds for any doubly stochastic H (core.FromFree builds every
// estimate that way); an H whose columns do not sum to one is refused, as
// is echo cancellation, whose rounds do not multiply out this way.
func (s *State) RunFrom(x *dense.Matrix, walks []*dense.Matrix) (*dense.Matrix, error) {
	if x.Rows != s.n || x.Cols != s.k {
		return nil, fmt.Errorf("propagation: X is %d×%d, state wants %d×%d", x.Rows, x.Cols, s.n, s.k)
	}
	if err := s.checkWalks(walks); err != nil {
		return nil, err
	}
	xUse := x
	if s.opts.Center {
		s.x.CopyFrom(x)
		for i := range s.x.Data {
			s.x.Data[i] -= 1.0 / float64(s.k)
		}
		xUse = s.x
	}
	k := s.k
	if len(walks) == 0 {
		s.f.CopyFrom(xUse)
	} else {
		s.run.Rows(s.n, func(lo, hi int) {
			bufs := [2][]float64{s.fh.Data[lo*k : hi*k], s.wfh.Data[lo*k : hi*k]}
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
			f := s.f.Data[lo*k : hi*k]
			for i, v := range xUse.Data[lo*k : hi*k] {
				f[i] = v + t[i]
			}
		})
	}
	stable := 0
	havePrev := false
	for it := len(walks); it < s.opts.Iterations; it++ {
		if s.opts.EchoCancellation {
			// −DF̃H̃²: each node subtracts the degree-weighted reflection of
			// its own belief.
			s.run.Rows(s.n, func(lo, hi int) {
				echo := s.echo.Data[lo*k : hi*k]
				exec.MulRowsH(echo, s.f.Data[lo*k:hi*k], s.h2.Data, k)
				for i, d := range s.deg[lo:hi] {
					for j := i * k; j < (i+1)*k; j++ {
						echo[j] *= d
					}
				}
			})
		}
		// One dense round: wfh = W·(F·H̃), then the fused belief update
		// F ← X (+ WFH̃ − echo) per row chunk.
		s.run.DenseRound(s.w, s.f, s.hScaled, s.fh, s.wfh, func(_, lo, hi int) {
			if s.opts.EchoCancellation {
				for i := lo * k; i < hi*k; i++ {
					s.f.Data[i] = xUse.Data[i] + s.wfh.Data[i] - s.echo.Data[i]
				}
				return
			}
			for i := lo * k; i < hi*k; i++ {
				s.f.Data[i] = xUse.Data[i] + s.wfh.Data[i]
			}
		})
		if s.opts.StopWhenStable > 0 {
			s.cur = dense.ArgmaxRowsInto(s.cur, s.f)
			if havePrev && equalInts(s.cur, s.prv) {
				stable++
				if stable >= s.opts.StopWhenStable {
					break
				}
			} else {
				stable = 0
			}
			s.cur, s.prv = s.prv, s.cur
			havePrev = true
		}
	}
	return s.f, nil
}

// checkWalks refuses walks RunFrom cannot start from: more than the
// iteration count, the wrong shape, echo cancellation, or (centered) an H̃
// whose columns do not sum to zero.
func (s *State) checkWalks(walks []*dense.Matrix) error {
	if len(walks) == 0 {
		return nil
	}
	if len(walks) > s.opts.Iterations {
		return fmt.Errorf("propagation: %d walks for %d iterations", len(walks), s.opts.Iterations)
	}
	if s.opts.EchoCancellation {
		return fmt.Errorf("propagation: cannot start from walks with echo cancellation")
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
