// Package propagation implements the label-propagation algorithms of the
// paper: linearized belief propagation (LinBP, Eq. 1/4 with the convergence
// criterion Eq. 2), plus the homophily baselines used in Figure 6i — the
// harmonic-functions method and MultiRankWalk (random walks with restarts).
package propagation

import (
	"errors"
	"fmt"
	"math"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// LinBPOptions configures LinBP.
type LinBPOptions struct {
	// S is the convergence parameter s ∈ (0,1): the compatibility matrix is
	// scaled by ε = S / (ρ(W)·ρ(H̃)) so that the update contracts (Eq. 2).
	// The paper uses s = 0.5 following [18]. Default 0.5; NaN, ±Inf and
	// negative values are refused.
	S float64
	// Iterations of the update F ← X̃ + εWFH̃, a fixed count. Default 10
	// (as in §5.3).
	Iterations int
	// Center, when true, centers X and H around 1/k before propagating.
	// Theorem 3.1 proves the resulting labels are identical either way;
	// centering keeps the iterates bounded (Example C.1). The zero value is
	// false; DefaultLinBPOptions sets it.
	Center bool
}

func (o *LinBPOptions) defaults() {
	if o.S == 0 {
		o.S = 0.5
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
}

// DefaultLinBPOptions returns the paper's propagation settings
// (s = 0.5, 10 iterations, centered).
func DefaultLinBPOptions() LinBPOptions {
	return LinBPOptions{S: 0.5, Iterations: 10, Center: true}
}

// LinBP iterates F ← X̃ + εWFH̃ and returns the final belief matrix F
// (n×k). W must be the symmetric adjacency matrix, X the explicit-belief
// matrix and H a k×k compatibility matrix (doubly stochastic or already
// centered — Theorem 3.1 makes the choice irrelevant for labels).
func LinBP(w *sparse.CSR, x *dense.Matrix, h *dense.Matrix, opts LinBPOptions) (*dense.Matrix, error) {
	if err := checkShapes(w, x, h); err != nil {
		return nil, err
	}
	st, err := NewState(w, h, opts)
	if err != nil {
		return nil, err
	}
	return st.Run(x)
}

// LinBPLabels runs LinBP and returns the predicted class per node
// (argmax over beliefs, the paper's label(·) operator).
func LinBPLabels(w *sparse.CSR, x *dense.Matrix, h *dense.Matrix, opts LinBPOptions) ([]int, error) {
	f, err := LinBP(w, x, h, opts)
	if err != nil {
		return nil, err
	}
	return dense.ArgmaxRows(f), nil
}

// ScalingFactor returns ε = s/(ρ(W)·ρ(H)), the scaling that guarantees
// convergence of LinBP for s < 1 (Eq. 2). H is the (centered) compatibility
// matrix actually used in the update.
func ScalingFactor(w *sparse.CSR, h *dense.Matrix, s float64) (float64, error) {
	return ScalingFactorWithRho(w.SpectralRadiusCached(), h, s)
}

// ScalingFactorWithRho is ScalingFactor with ρ(W) supplied by the caller.
// The mutable-topology engine pins ρ(W) per compaction epoch (re-deriving
// it canonically from the compacted CSR), so the scaling of a mutated
// graph is computed from the pinned value, not a fresh Lanczos run.
func ScalingFactorWithRho(rhoW float64, h *dense.Matrix, s float64) (float64, error) {
	if !(s > 0) || math.IsInf(s, 1) {
		return 0, fmt.Errorf("propagation: convergence parameter s=%v must be finite and positive", s)
	}
	rhoH := dense.SpectralRadiusSym(dense.Symmetrize(h), 200)
	if rhoW == 0 || rhoH == 0 {
		// Degenerate: empty graph or uniform H. Any ε works; use 1.
		return 1, nil
	}
	return s / (rhoW * rhoH), nil
}

// Energy evaluates the LinBP objective E(F) = ‖F − X − WFH‖² of
// Proposition 3.2 (squared Frobenius norm). The fixed point of the update
// equations has zero energy.
func Energy(w *sparse.CSR, f, x, h *dense.Matrix) (float64, error) {
	if err := checkShapes(w, x, h); err != nil {
		return 0, err
	}
	if f.Rows != x.Rows || f.Cols != x.Cols {
		return 0, fmt.Errorf("propagation: F is %d×%d, want %d×%d", f.Rows, f.Cols, x.Rows, x.Cols)
	}
	fh := dense.Mul(f, h)
	wfh := w.MulDense(fh)
	r := dense.Sub(dense.Sub(f, x), wfh)
	fr := dense.Frobenius(r)
	return fr * fr, nil
}

func checkShapes(w *sparse.CSR, x *dense.Matrix, h *dense.Matrix) error {
	if x.Rows != w.N {
		return fmt.Errorf("propagation: X has %d rows, graph has %d nodes", x.Rows, w.N)
	}
	if h.Rows != h.Cols {
		return fmt.Errorf("propagation: H is %d×%d, want square", h.Rows, h.Cols)
	}
	if x.Cols != h.Rows {
		return fmt.Errorf("propagation: X has %d cols, H is %d×%d", x.Cols, h.Rows, h.Cols)
	}
	if w.N == 0 {
		return errors.New("propagation: empty graph")
	}
	return nil
}
