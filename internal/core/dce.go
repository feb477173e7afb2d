package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"factorgraph/internal/dense"
	"factorgraph/internal/exec"
	"factorgraph/internal/optimize"
)

// DCEOptions configures distant compatibility estimation (§4.4–4.8).
type DCEOptions struct {
	// Lambda is the single hyperparameter λ: the geometric weight ratio
	// w_{ℓ+1} = λ·w_ℓ balancing longer (more numerous, weaker) against
	// shorter (sparser, more reliable) paths. Default 10 (Result 1).
	Lambda float64
	// Restarts is the number of random restarts r; 1 is plain DCE,
	// 10 reproduces DCEr as configured in the paper (Result 3).
	Restarts int
	// Seed drives the restart-point sampling.
	Seed uint64
	// Solver selects the inner optimizer. The default (SolverLBFGS)
	// mirrors the paper's quasi-Newton SLSQP: L-BFGS with a weak-Wolfe line
	// search and, unless LBFGS.Memory says otherwise, a correction pair per
	// free parameter, which converges every restart of a k ≤ 5 energy:
	// 15–42 iterations per restart at k = 3 and 78–212 at k = 5 on the
	// benchmark's 20 000-node seed samples. Plain gradient descent is kept
	// for the optimizer ablation — it stalls far from the optimum on the
	// k* ≥ 20 dimensional energies of k ≥ 7 classes. Both stop at the
	// floating-point floor of the energy rather than iterate on steps that
	// no longer change it.
	Solver Solver
	// GD configures the gradient-descent solver (SolverGD).
	GD optimize.GDOptions
	// LBFGS configures the L-BFGS solver (SolverLBFGS).
	LBFGS optimize.LBFGSOptions
}

// Solver selects the inner optimizer for DCE/DCEr.
type Solver int

const (
	// SolverLBFGS is the default quasi-Newton solver.
	SolverLBFGS Solver = iota
	// SolverGD is steepest descent with Armijo backtracking.
	SolverGD
)

func (o *DCEOptions) defaults() {
	if o.Lambda == 0 {
		o.Lambda = 10
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
}

// DefaultDCEOptions returns λ=10 and a single start (plain DCE).
func DefaultDCEOptions() DCEOptions { return DCEOptions{Lambda: 10, Restarts: 1} }

// DefaultDCErOptions returns λ=10 with r=10 restarts (DCEr).
func DefaultDCErOptions() DCEOptions { return DCEOptions{Lambda: 10, Restarts: 10} }

// PathWeights returns the weight vector [1, λ, λ², …] of length lmax,
// normalized so the weights sum to 1 (normalization does not change the
// minimizer but keeps energies comparable across ℓmax).
func PathWeights(lambda float64, lmax int) []float64 {
	w := make([]float64, lmax)
	cur, sum := 1.0, 0.0
	for i := range w {
		w[i] = cur
		sum += cur
		cur *= lambda
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// DCEObjective is the distance-smoothed energy of Eq. 13/14,
//
//	E(H) = Σ_ℓ w_ℓ ‖Hℓ − P̂⁽ℓ⁾‖²,
//
// over the free parameters of H, with the explicit gradient of
// Proposition 4.7. The objective runs entirely on the k×k sketches — its
// cost is independent of the graph size. It is immutable once built and may
// be shared between goroutines; evaluation happens on a DCEEvaluator's
// scratch.
type DCEObjective struct {
	Phats   []*dense.Matrix // P̂⁽ℓ⁾, ℓ = 1..ℓmax
	Weights []float64       // w_ℓ
	K       int

	sym []*dense.Matrix // symmetrized P̂⁽ℓ⁾ used by the gradient
}

// NewDCEObjective builds the objective from summaries and path weights.
func NewDCEObjective(s *Summaries, weights []float64) (*DCEObjective, error) {
	if len(weights) == 0 || len(weights) > s.LMax {
		return nil, fmt.Errorf("core: %d weights for %d summaries", len(weights), s.LMax)
	}
	o := &DCEObjective{Phats: s.P[:len(weights)], Weights: weights, K: s.K}
	o.sym = make([]*dense.Matrix, len(o.Phats))
	for i, p := range o.Phats {
		o.sym[i] = dense.Symmetrize(p)
	}
	return o, nil
}

// Value implements optimize.Objective for one-off evaluations; an optimizer
// should run on an Evaluator.
func (o *DCEObjective) Value(h []float64) float64 { return o.Evaluator().Value(h) }

// Grad implements optimize.Objective; see Value.
func (o *DCEObjective) Grad(h []float64) []float64 { return o.Evaluator().Grad(h) }

// DCEEvaluator evaluates a DCEObjective on fixed scratch: after the first
// call neither Value nor Grad allocates. It remembers the point of its last
// evaluation, so the Grad a solver asks for right after the Value of the
// step it accepted reuses that step's powers of H. An evaluator belongs to
// one goroutine; Grad returns scratch that the next Grad overwrites.
//
// Every k×k product runs on exec.MulRowsH, the propagation solver's row
// kernel: k rows back to back against a k×k right factor, each entry summed
// in inner-index order as dense.MulInto sums it.
type DCEEvaluator struct {
	o    *DCEObjective
	at   []float64       // the point pow holds; empty before the first evaluation
	pow  []*dense.Matrix // pow[ℓ−1] = H^ℓ at the point at
	adj  []float64       // Ȳ_ℓ, the adjoint of H^ℓ
	prod []float64       // destination of the next product
	full *dense.Matrix   // G = ∂E/∂H, entries treated as independent
	grad []float64
}

// Evaluator returns a new evaluator of o. Its matrices and vectors share
// one slab.
func (o *DCEObjective) Evaluator() *DCEEvaluator {
	k, kk, nf, np := o.K, o.K*o.K, NumFree(o.K), len(o.Weights)
	slab := make([]float64, (np+3)*kk+2*nf)
	take := func(n int) []float64 {
		v := slab[:n:n]
		slab = slab[n:]
		return v
	}
	mats := make([]dense.Matrix, np+1)
	e := &DCEEvaluator{o: o, pow: make([]*dense.Matrix, np)}
	for l := range mats {
		mats[l] = dense.Matrix{Rows: k, Cols: k, Data: take(kk)}
	}
	for l := range e.pow {
		e.pow[l] = &mats[l]
	}
	e.full = &mats[np]
	e.adj, e.prod = take(kk), take(kk)
	e.at, e.grad = take(nf)[:0], take(nf)
	return e
}

// powers leaves H¹..H^ℓmax at h in e.pow: ℓmax−1 multiplies, or none when h
// is the point of the previous evaluation.
func (e *DCEEvaluator) powers(h []float64) {
	if len(h) != len(e.grad) {
		// parameter-length mismatch is a programming error
		panic(fmt.Sprintf("core: %d free parameters for k=%d, want %d", len(h), e.o.K, len(e.grad)))
	}
	if slices.Equal(e.at, h) {
		return
	}
	h1 := e.pow[0].Data
	fillFromFree(e.pow[0], h)
	for l := 1; l < len(e.pow); l++ {
		exec.MulRowsH(e.pow[l].Data, e.pow[l-1].Data, h1, e.o.K)
	}
	e.at = append(e.at[:0], h...)
}

// Value implements optimize.Objective. Each term is w_ℓ·d·d with d the
// Frobenius distance: the square root is taken and squared again, not
// skipped, because the energy's bits, and so every restart's path, depend
// on that rounding.
func (e *DCEEvaluator) Value(h []float64) float64 {
	e.powers(h)
	v := 0.0
	for l, w := range e.o.Weights {
		p := e.pow[l].Data
		q := e.o.Phats[l].Data[:len(p)]
		ss := 0.0
		for i, pv := range p {
			d := pv - q[i]
			ss += d * d
		}
		d := math.Sqrt(ss)
		v += w * d * d
	}
	return v
}

// Grad implements optimize.Objective. The full-matrix gradient of
// Proposition 4.7 (exact for arbitrary P̂ via the symmetrized S_ℓ),
//
//	G = Σ_ℓ w_ℓ (2ℓ·H^{2ℓ−1} − 2·Σ_{r=0}^{ℓ−1} H^r S_ℓ H^{ℓ−1−r}) = Σ_ℓ Σ_r H^r R_ℓ H^{ℓ−1−r},
//
// with R_ℓ = 2w_ℓ(H^ℓ − S_ℓ) the derivative of the ℓ-th term in H^ℓ, is
// accumulated backwards through the chain H^ℓ = H^{ℓ−1}·H that Value walks
// forwards:
//
//	Ȳ_ℓmax = R_ℓmax,  Ȳ_{ℓ−1} = R_{ℓ−1} + Ȳ_ℓ·H,  G = Ȳ_1 + Σ_{ℓ≥2} H^{ℓ−1}·Ȳ_ℓ
//
// — 2(ℓmax−1) multiplies on top of the powers — and contracted through the
// structure matrix S by ProjectGradient.
func (e *DCEEvaluator) Grad(h []float64) []float64 {
	e.powers(h)
	o, k, last := e.o, e.o.K, len(e.o.Weights)
	full, adj, prod, h1 := e.full.Data, e.adj, e.prod, e.pow[0].Data
	// The first adjoint and the first product are stored, not added to
	// zero: the sums are the same but for the sign of an exact zero.
	for l := last; l >= 1; l-- {
		w2, p, s := 2*o.Weights[l-1], e.pow[l-1].Data[:len(adj)], o.sym[l-1].Data[:len(adj)]
		if l == last {
			for i := range adj {
				adj[i] = w2 * (p[i] - s[i])
			}
		} else {
			for i := range adj {
				adj[i] += w2 * (p[i] - s[i])
			}
		}
		if l == 1 {
			if last == 1 {
				copy(full, adj)
			} else {
				addTo(full, adj)
			}
			break
		}
		if l == last {
			exec.MulRowsH(full, e.pow[l-2].Data, adj, k)
		} else {
			exec.MulRowsH(prod, e.pow[l-2].Data, adj, k)
			addTo(full, prod)
		}
		exec.MulRowsH(prod, adj, h1, k)
		adj, prod = prod, adj
	}
	return projectGradientInto(e.grad, e.full)
}

// addTo adds src into dst entry by entry; src holds at least len(dst).
func addTo(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}

// minimizeRestarts minimizes obj from every start, each restart on its own
// and all of them on min(GOMAXPROCS, len(starts)) workers — the calling
// goroutine alone when that is one — with one evaluator per worker. The
// results come back in start order, so nothing depends on scheduling.
func minimizeRestarts(obj *DCEObjective, starts [][]float64, opts DCEOptions) ([]optimize.Result, error) {
	results := make([]optimize.Result, len(starts))
	errs := make([]error, len(starts))
	var next atomic.Int64
	work := func() {
		ev := obj.Evaluator()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(starts) {
				return
			}
			switch opts.Solver {
			case SolverGD:
				results[i], errs[i] = optimize.GradientDescent(ev, starts[i], opts.GD)
			default:
				results[i], errs[i] = optimize.LBFGS(ev, starts[i], opts.LBFGS)
			}
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(starts)); workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	} else {
		work()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: DCE restart %d: %w", i, err)
		}
	}
	return results, nil
}

// EstimateDCE minimizes the DCE energy from the uniform start (plain DCE)
// or from multiple hyper-quadrant restarts (DCEr), returning the estimated
// compatibility matrix with the lowest final energy (the earliest restart
// among equals).
func EstimateDCE(s *Summaries, opts DCEOptions) (*dense.Matrix, error) {
	opts.defaults()
	if opts.Lambda < 0 {
		return nil, fmt.Errorf("core: negative lambda %v", opts.Lambda)
	}
	obj, err := NewDCEObjective(s, PathWeights(opts.Lambda, s.LMax))
	if err != nil {
		return nil, err
	}
	results, err := minimizeRestarts(obj, restartPoints(s.K, opts.Restarts, opts.Seed), opts)
	if err != nil {
		return nil, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Value < best.Value {
			best = r
		}
	}
	return FromFree(best.X, s.K)
}

// restartPoints returns r starting vectors in the k*-dimensional parameter
// space: the uniform point 1/k first, then points 1/k ± δ with δ = 1/(2k²)
// drawn from the 2^{k*} hyper-quadrants (§4.8) — enumerated exhaustively
// when they fit in r, sampled uniformly otherwise. The points share one
// slab.
func restartPoints(k, r int, seed uint64) [][]float64 {
	kstar := NumFree(k)
	delta := 1 / (2 * float64(k) * float64(k))
	enumerate := r > 1 && kstar < 20 && (1<<uint(kstar)) <= r-1
	n := max(r, 1)
	if enumerate {
		n = 1 + 1<<uint(kstar)
	}
	slab := make([]float64, n*kstar)
	for i := range slab {
		slab[i] = 1 / float64(k)
	}
	points := make([][]float64, n)
	for i := range points {
		points[i] = slab[i*kstar : (i+1)*kstar : (i+1)*kstar]
	}
	if enumerate {
		// Enumerate every quadrant.
		for mask, x := range points[1:] {
			for b := range x {
				if mask>>uint(b)&1 == 1 {
					x[b] += delta
				} else {
					x[b] -= delta
				}
			}
		}
		return points
	}
	if n == 1 {
		return points
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for _, x := range points[1:] {
		for b := range x {
			if rng.IntN(2) == 1 {
				x[b] += delta
			} else {
				x[b] -= delta
			}
		}
	}
	return points
}
