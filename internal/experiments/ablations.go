package experiments

import (
	"fmt"
	"time"

	"factorgraph/internal/bp"
	"factorgraph/internal/core"
	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/metrics"
	"factorgraph/internal/propagation"
	"factorgraph/internal/sparse"
)

func init() {
	register("ablation-ec", AblationEC)
	register("ablation-nb", AblationNB)
	register("ablation-bp", AblationBP)
	register("ablation-optimizer", AblationOptimizer)
}

// AblationEC tests the paper's §2.3 design decision to drop the echo
// cancellation term from LinBP: accuracy with and without the EC term
// across sparsity levels. The paper reports no parameter regime where EC
// consistently helps; the table lets the reader check.
func AblationEC(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	t := &Table{
		ID:      "ablation-ec",
		Title:   "LinBP with vs without the echo-cancellation term",
		Params:  fmt.Sprintf("n=%d, d=25, h=3, GS compatibilities, reps=%d", n, cfg.Reps),
		Columns: []string{"f", "LinBP", "LinBP+EC"},
		Notes:   "Paper §2.3: EC has no consistent accuracy benefit and complicates the convergence threshold.",
	}
	for _, f := range []float64{0.001, 0.01, 0.1} {
		var plain, ec []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := syntheticGraph(n, 25, 3, seed)
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, 3, f, seed)
			if err != nil {
				return nil, err
			}
			gs, err := core.GoldStandard(res.Graph.Adj, res.Labels, 3)
			if err != nil {
				return nil, err
			}
			x, err := labels.Matrix(sl, 3)
			if err != nil {
				return nil, err
			}
			opts := propagation.DefaultLinBPOptions()
			pred, err := propagation.LinBPLabels(res.Graph.Adj, x, gs, opts)
			if err != nil {
				return nil, err
			}
			plain = append(plain, metrics.MacroAccuracy(pred, res.Labels, sl, 3))
			f, err := echoCancelledLinBP(res.Graph.Adj, x, gs, opts)
			if err != nil {
				return nil, err
			}
			ec = append(ec, metrics.MacroAccuracy(dense.ArgmaxRows(f), res.Labels, sl, 3))
		}
		cfg.logf("ablation-ec: f=%g", f)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.3f", f), fmtF(mean(plain)), fmtF(mean(ec))})
	}
	return t, nil
}

// echoCancelledLinBP is LinBP with the echo-cancellation term of the
// original linearization [18], F ← X̃ + W·F̃·H̃ − D·F̃·H̃² with D the weighted
// degrees, as a plain loop under propagation.LinBP's centring and
// ε-scaling. opts.S and opts.Iterations are used as given (no defaults).
func echoCancelledLinBP(w *sparse.CSR, x, h *dense.Matrix, opts propagation.LinBPOptions) (*dense.Matrix, error) {
	k := h.Rows
	hUse, xt := h, x
	if opts.Center {
		hUse = dense.AddScalar(h, -1.0/float64(k))
		xt = dense.AddScalar(x, -1.0/float64(k))
	}
	eps, err := propagation.ScalingFactor(w, hUse, opts.S)
	if err != nil {
		return nil, err
	}
	hs := dense.Scale(hUse, eps)
	h2 := dense.Mul(hs, hs)
	deg := w.Degrees()
	f := xt.Clone()
	for it := 0; it < opts.Iterations; it++ {
		echo := dense.Mul(f, h2)
		for i, d := range deg {
			row := echo.Row(i)
			for j := range row {
				row[j] *= d
			}
		}
		f = dense.Sub(dense.Add(xt, w.MulDense(dense.Mul(f, hs))), echo)
	}
	return f, nil
}

// AblationNB isolates the non-backtracking correction (§4.5): end-to-end
// DCEr accuracy and estimation L2 using NB path statistics versus plain
// powers of W. The NB variant's consistency (Theorem 4.1) should show up
// as lower L2, most visibly at low average degree where the O(1/d) bias of
// full paths is largest.
func AblationNB(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	H := core.HFromSkew(8)
	t := &Table{
		ID:      "ablation-nb",
		Title:   "DCEr with non-backtracking vs full-path statistics",
		Params:  fmt.Sprintf("n=%d, h=8, f=0.05, reps=%d", n, cfg.Reps),
		Columns: []string{"d", "L2 (NB)", "L2 (full)", "acc (NB)", "acc (full)"},
	}
	for _, d := range []float64{5, 10, 25} {
		var l2NB, l2Full, accNB, accFull []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := syntheticGraph(n, d, 8, seed)
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, 3, 0.05, seed)
			if err != nil {
				return nil, err
			}
			for _, variant := range []struct {
				nb  bool
				l2  *[]float64
				acc *[]float64
			}{{true, &l2NB, &accNB}, {false, &l2Full, &accFull}} {
				s, err := core.Summarize(res.Graph.Adj, sl, 3, core.SummaryOptions{
					LMax: 5, NonBacktracking: variant.nb, Variant: core.Variant1,
				})
				if err != nil {
					return nil, err
				}
				est, err := core.EstimateDCE(s, core.DCEOptions{Lambda: 10, Restarts: 10, Seed: seed})
				if err != nil {
					return nil, err
				}
				*variant.l2 = append(*variant.l2, metrics.L2(est, H))
				acc, err := propagateAccuracy(res.Graph.Adj, sl, res.Labels, 3, est)
				if err != nil {
					return nil, err
				}
				*variant.acc = append(*variant.acc, acc)
			}
		}
		cfg.logf("ablation-nb: d=%g", d)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", d),
			fmtF(mean(l2NB)), fmtF(mean(l2Full)),
			fmtF(mean(accNB)), fmtF(mean(accFull)),
		})
	}
	return t, nil
}

// AblationBP compares standard loopy belief propagation (§2.2, with
// damping and ε-softened potentials to coax convergence) against LinBP on
// the same graphs: accuracy, wall-clock time, and whether BP converged.
// This is the tradeoff that motivates linearization.
func AblationBP(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 2000 / cfg.Scale
	if n < 100 {
		n = 100
	}
	t := &Table{
		ID:      "ablation-bp",
		Title:   "Loopy BP vs LinBP with gold-standard compatibilities",
		Params:  fmt.Sprintf("n=%d, d=10, h=3, reps=%d, BP: damping 0.2, eps 0.7, ≤50 rounds", n, cfg.Reps),
		Columns: []string{"f", "acc LinBP", "acc BP", "time LinBP[s]", "time BP[s]", "BP converged"},
	}
	for _, f := range []float64{0.01, 0.1} {
		var accLin, accBP, timeLin, timeBP []float64
		converged := true
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := syntheticGraph(n, 10, 3, seed)
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, 3, f, seed)
			if err != nil {
				return nil, err
			}
			gs, err := core.GoldStandard(res.Graph.Adj, res.Labels, 3)
			if err != nil {
				return nil, err
			}
			x, err := labels.Matrix(sl, 3)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			pred, err := propagation.LinBPLabels(res.Graph.Adj, x, gs, propagation.DefaultLinBPOptions())
			if err != nil {
				return nil, err
			}
			timeLin = append(timeLin, time.Since(start).Seconds())
			accLin = append(accLin, metrics.MacroAccuracy(pred, res.Labels, sl, 3))

			start = time.Now()
			bpPred, bpRes, err := bp.Labels(res.Graph.Adj, sl, 3, gs, bp.Options{
				MaxIterations: 50, Damping: 0.2, Epsilon: 0.7,
			})
			if err != nil {
				return nil, err
			}
			timeBP = append(timeBP, time.Since(start).Seconds())
			accBP = append(accBP, metrics.MacroAccuracy(bpPred, res.Labels, sl, 3))
			converged = converged && bpRes.Converged
		}
		cfg.logf("ablation-bp: f=%g", f)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", f),
			fmtF(mean(accLin)), fmtF(mean(accBP)),
			fmtF(mean(timeLin)), fmtF(mean(timeBP)),
			fmt.Sprintf("%v", converged),
		})
	}
	return t, nil
}

// AblationOptimizer compares the two inner solvers for the DCE energy:
// plain gradient descent with backtracking versus L-BFGS, over λ (the
// energy gets more ill-conditioned as λ grows). Both should reach the same
// energy; L-BFGS in fewer evaluations / less time.
func AblationOptimizer(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	H := core.HFromSkew(8)
	t := &Table{
		ID:      "ablation-optimizer",
		Title:   "DCEr inner solver: gradient descent vs L-BFGS",
		Params:  fmt.Sprintf("n=%d, d=25, h=8, f=0.01, r=10, reps=%d", n, cfg.Reps),
		Columns: []string{"lambda", "L2 (GD)", "L2 (LBFGS)", "time GD[s]", "time LBFGS[s]"},
	}
	for _, lambda := range []float64{1, 10, 100} {
		var l2GD, l2LB, tGD, tLB []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := syntheticGraph(n, 25, 8, seed)
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, 3, 0.01, seed)
			if err != nil {
				return nil, err
			}
			s, err := core.Summarize(res.Graph.Adj, sl, 3, core.DefaultSummaryOptions())
			if err != nil {
				return nil, err
			}
			start := time.Now()
			gd, err := core.EstimateDCE(s, core.DCEOptions{Lambda: lambda, Restarts: 10, Seed: seed, Solver: core.SolverGD})
			if err != nil {
				return nil, err
			}
			tGD = append(tGD, time.Since(start).Seconds())
			l2GD = append(l2GD, metrics.L2(gd, H))

			start = time.Now()
			lb, err := core.EstimateDCE(s, core.DCEOptions{Lambda: lambda, Restarts: 10, Seed: seed, Solver: core.SolverLBFGS})
			if err != nil {
				return nil, err
			}
			tLB = append(tLB, time.Since(start).Seconds())
			l2LB = append(l2LB, metrics.L2(lb, H))
		}
		cfg.logf("ablation-optimizer: lambda=%g", lambda)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", lambda),
			fmtF(mean(l2GD)), fmtF(mean(l2LB)),
			fmtF(mean(tGD)), fmtF(mean(tLB)),
		})
	}
	return t, nil
}
