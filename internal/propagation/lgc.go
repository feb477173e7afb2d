package propagation

import (
	"fmt"
	"math"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

// LGCOptions configures the local-and-global-consistency baseline.
type LGCOptions struct {
	// Alpha is the propagation weight in F ← αSF + (1−α)Y, α ∈ (0,1)
	// (default 0.9, the value used by Zhou et al.).
	Alpha float64
	// Iterations (default 50).
	Iterations int
}

// LGC implements Zhou et al.'s "Learning with Local and Global
// Consistency" (reference [63]; its symmetric normalization is the
// template for the paper's normalization variant 2): iterate
// F ← αSF + (1−α)Y with S = D^(−1/2)·W·D^(−1/2). A homophily method —
// included as a baseline alongside Harmonic and MultiRankWalk.
func LGC(w *sparse.CSR, seed []int, k int, opts LGCOptions) ([]int, error) {
	if len(seed) != w.N {
		return nil, fmt.Errorf("propagation: %d seed labels for %d nodes", len(seed), w.N)
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.9
	}
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		return nil, fmt.Errorf("propagation: LGC alpha=%v outside (0,1)", opts.Alpha)
	}
	if opts.Iterations == 0 {
		opts.Iterations = 50
	}
	y, err := labels.Matrix(seed, k)
	if err != nil {
		return nil, err
	}
	deg := w.Degrees()
	invSqrt := make([]float64, w.N)
	for i, d := range deg {
		if d > 0 {
			invSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	f := y.Clone()
	scaled := dense.New(w.N, k)
	next := dense.New(w.N, k)
	for it := 0; it < opts.Iterations; it++ {
		// scaled = D^(−1/2)·F
		for i := 0; i < w.N; i++ {
			srow := scaled.Row(i)
			frow := f.Row(i)
			for j := range srow {
				srow[j] = frow[j] * invSqrt[i]
			}
		}
		w.MulDenseInto(next, scaled)
		// next = α·D^(−1/2)·(W·scaled) + (1−α)·Y
		for i := 0; i < w.N; i++ {
			nrow := next.Row(i)
			yrow := y.Row(i)
			for j := range nrow {
				nrow[j] = opts.Alpha*nrow[j]*invSqrt[i] + (1-opts.Alpha)*yrow[j]
			}
		}
		f, next = next, f
	}
	return dense.ArgmaxRows(f), nil
}

// ZooBPOptions configures the ZooBP variant.
type ZooBPOptions struct {
	// EpsH is the interaction strength ε_h ∈ (0,1]; ZooBP's update is
	// F ← X̃ + (ε_h/k)·W·F·H̃ for a centered residual potential H̃.
	// Default 0.5.
	EpsH float64
	// Iterations (default 10).
	Iterations int
}

// ZooBP implements the homogeneous-graph special case of ZooBP (Eswaran et
// al., reference [15]), which the paper positions as a restriction of
// LinBP to constant row-sum symmetric potentials: the update
// F ← X̃ + (ε_h/k)WFH̃ is exactly LinBP's with a fixed scaling instead of
// the spectral-radius-derived ε. Requires a symmetric doubly-stochastic H
// (constant row sums). It runs on the same rounds as LinBP's State.
func ZooBP(w *sparse.CSR, x *dense.Matrix, h *dense.Matrix, opts ZooBPOptions) (*dense.Matrix, error) {
	if err := checkShapes(w, x, h); err != nil {
		return nil, err
	}
	if opts.EpsH == 0 {
		opts.EpsH = 0.5
	}
	if opts.EpsH < 0 || opts.EpsH > 1 {
		return nil, fmt.Errorf("propagation: ZooBP eps_h=%v outside (0,1]", opts.EpsH)
	}
	if opts.Iterations == 0 {
		opts.Iterations = 10
	}
	k := h.Rows
	// Verify the constant row-sum restriction ZooBP is limited to.
	for i := 0; i < k; i++ {
		s := 0.0
		for j := 0; j < k; j++ {
			s += h.At(i, j)
		}
		if math.Abs(s-1) > 1e-6 {
			return nil, fmt.Errorf("propagation: ZooBP requires constant row sums; row %d sums to %v", i, s)
		}
	}
	// A centred State with ε_h/k in place of the spectral-radius scaling.
	st := &State{
		w:       w,
		n:       w.N,
		k:       k,
		opts:    LinBPOptions{Iterations: opts.Iterations, Center: true},
		hScaled: dense.Scale(dense.AddScalar(h, -1.0/float64(k)), opts.EpsH/float64(k)),
		f:       dense.New(w.N, k),
		fh:      dense.New(w.N, k),
	}
	return st.Run(x)
}
