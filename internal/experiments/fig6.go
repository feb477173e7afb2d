package experiments

import (
	"fmt"
	"time"

	"factorgraph/internal/core"
	"factorgraph/internal/dense"
	"factorgraph/internal/gen"
	"factorgraph/internal/labels"
	"factorgraph/internal/metrics"
	"factorgraph/internal/optimize"
	"factorgraph/internal/propagation"
	"factorgraph/internal/sparse"
)

func init() {
	register("fig6a", Fig6a)
	register("fig6b", Fig6b)
	register("fig6c", Fig6c)
	register("fig6d", Fig6d)
	register("fig6e", Fig6e)
	register("fig6f", Fig6f)
	register("fig6g", Fig6g)
	register("fig6h", Fig6h)
	register("fig6i", Fig6i)
	register("fig6j", Fig6j)
	register("fig6k", Fig6k)
	register("fig6l", Fig6l)
}

// dceWithVariantAndLmax estimates H with DCE using a specific normalization
// variant and maximum path length.
func dceWithVariantAndLmax(w *sparse.CSR, seed []int, k int, variant core.Normalization, lmax int, lambda float64, restarts int, rngSeed uint64) (*dense.Matrix, error) {
	s, err := core.Summarize(w, seed, k, core.SummaryOptions{LMax: lmax, NonBacktracking: true, Variant: variant})
	if err != nil {
		return nil, err
	}
	return core.EstimateDCE(s, core.DCEOptions{Lambda: lambda, Restarts: restarts, Seed: rngSeed})
}

// Fig6a reproduces Figure 6a: L2 norm of the DCE estimate from the planted
// H for the 3 normalization variants as ℓmax grows (λ=10, f=0.05, h=8).
// Expected shape: variant 1 best and improving with ℓmax; variant 3 worst.
func Fig6a(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	H := core.HFromSkew(8)
	t := &Table{
		ID:      "fig6a",
		Title:   "L2 norm of DCE for 3 normalization variants vs max path length",
		Params:  fmt.Sprintf("n=%d, d=25, h=8, f=0.05, lambda=10, reps=%d", n, cfg.Reps),
		Columns: []string{"lmax", "variant1", "variant2", "variant3"},
	}
	for lmax := 1; lmax <= 5; lmax++ {
		row := []string{fmt.Sprintf("%d", lmax)}
		for _, v := range []core.Normalization{core.Variant1, core.Variant2, core.Variant3} {
			var l2s []float64
			for rep := 0; rep < cfg.Reps; rep++ {
				seed := cfg.Seed + uint64(rep)
				res, err := syntheticGraph(n, 25, 8, seed)
				if err != nil {
					return nil, err
				}
				sl, err := sampleSeeds(res.Labels, 3, 0.05, seed)
				if err != nil {
					return nil, err
				}
				est, err := dceWithVariantAndLmax(res.Graph.Adj, sl, 3, v, lmax, 10, 1, seed)
				if err != nil {
					return nil, err
				}
				l2s = append(l2s, metrics.L2(est, H))
			}
			row = append(row, fmtF(mean(l2s)))
		}
		cfg.logf("fig6a: lmax=%d", lmax)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6b reproduces Figure 6b: L2 norm of DCEr as a function of the scaling
// factor λ and ℓmax, in the extremely sparse regime f=0.001. Longer paths
// (ℓmax=5) with λ≈10 should win; ℓmax=1 (MCE-equivalent) fails.
func Fig6b(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	H := core.HFromSkew(8)
	lambdas := []float64{0.1, 0.3, 1, 3, 10, 30, 100, 1000}
	t := &Table{
		ID:      "fig6b",
		Title:   "L2 norm of DCEr vs lambda and lmax",
		Params:  fmt.Sprintf("n=%d, d=25, h=8, f=0.001, reps=%d", n, cfg.Reps),
		Columns: []string{"lambda", "lmax=1", "lmax=2", "lmax=3", "lmax=4", "lmax=5"},
	}
	for _, lambda := range lambdas {
		row := []string{fmt.Sprintf("%g", lambda)}
		for lmax := 1; lmax <= 5; lmax++ {
			var l2s []float64
			for rep := 0; rep < cfg.Reps; rep++ {
				seed := cfg.Seed + uint64(rep)
				res, err := syntheticGraph(n, 25, 8, seed)
				if err != nil {
					return nil, err
				}
				sl, err := sampleSeeds(res.Labels, 3, 0.001, seed)
				if err != nil {
					return nil, err
				}
				est, err := dceWithVariantAndLmax(res.Graph.Adj, sl, 3, core.Variant1, lmax, lambda, 10, seed)
				if err != nil {
					return nil, err
				}
				l2s = append(l2s, metrics.L2(est, H))
			}
			row = append(row, fmtF(mean(l2s)))
		}
		cfg.logf("fig6b: lambda=%g", lambda)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// lambdaGrid is the λ sweep used to locate the optimum in Figures 6c/6d.
var lambdaGrid = []float64{0.1, 0.3, 1, 3, 10, 30, 100}

// optimalLambda returns the grid λ minimizing the mean L2 of DCEr from the
// planted H on the given workload.
func optimalLambda(cfg Config, n int, d float64, skew, f float64) (float64, float64, error) {
	H := core.HFromSkew(skew)
	bestLambda, bestL2 := 0.0, 0.0
	for li, lambda := range lambdaGrid {
		var l2s []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := syntheticGraph(n, d, skew, seed)
			if err != nil {
				return 0, 0, err
			}
			sl, err := sampleSeeds(res.Labels, 3, f, seed)
			if err != nil {
				return 0, 0, err
			}
			est, err := dceWithVariantAndLmax(res.Graph.Adj, sl, 3, core.Variant1, 5, lambda, 10, seed)
			if err != nil {
				return 0, 0, err
			}
			l2s = append(l2s, metrics.L2(est, H))
		}
		if m := mean(l2s); li == 0 || m < bestL2 {
			bestLambda, bestL2 = lambda, m
		}
	}
	return bestLambda, bestL2, nil
}

// Fig6c reproduces Figure 6c: the optimal λ as label sparsity f varies
// (n=10k, h=8, d=25). Expected shape: λ≈10 is robust for sparse labels,
// dropping toward small λ once labels are plentiful.
func Fig6c(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	t := &Table{
		ID:      "fig6c",
		Title:   "Optimal lambda vs label sparsity",
		Params:  fmt.Sprintf("n=%d, d=25, h=8, reps=%d", n, cfg.Reps),
		Columns: []string{"f", "opt lambda", "L2 at opt"},
	}
	for _, f := range []float64{0.01, 0.03, 0.1, 0.3, 1} {
		lam, l2, err := optimalLambda(cfg, n, 25, 8, f)
		if err != nil {
			return nil, err
		}
		cfg.logf("fig6c: f=%g -> lambda=%g", f, lam)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", f), fmt.Sprintf("%g", lam), fmtF(l2)})
	}
	return t, nil
}

// Fig6d reproduces Figure 6d: the optimal λ as the average degree d varies
// (n=10k, h=8, f=0.1).
func Fig6d(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	t := &Table{
		ID:      "fig6d",
		Title:   "Optimal lambda vs average degree",
		Params:  fmt.Sprintf("n=%d, h=8, f=0.1, reps=%d", n, cfg.Reps),
		Columns: []string{"d", "opt lambda", "L2 at opt"},
	}
	for _, d := range []float64{3, 5, 10, 30, 100} {
		lam, l2, err := optimalLambda(cfg, n, d, 8, 0.1)
		if err != nil {
			return nil, err
		}
		cfg.logf("fig6d: d=%g -> lambda=%g", d, lam)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%g", d), fmt.Sprintf("%g", lam), fmtF(l2)})
	}
	return t, nil
}

// Fig6e reproduces Figure 6e: estimation L2 of MCE, DCE and DCEr versus f
// (n=10k, h=8, d=25). DCE gets trapped in local optima at small f; DCEr's
// restarts recover the global optimum.
func Fig6e(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	H := core.HFromSkew(8)
	t := &Table{
		ID:      "fig6e",
		Title:   "L2 norm of MCE, DCE, DCEr vs label sparsity",
		Params:  fmt.Sprintf("n=%d, d=25, h=8, reps=%d", n, cfg.Reps),
		Columns: []string{"f", "MCE", "DCE", "DCEr"},
	}
	for _, f := range []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1} {
		mceL2s, dceL2s, dcerL2s := []float64{}, []float64{}, []float64{}
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := syntheticGraph(n, 25, 8, seed)
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, 3, f, seed)
			if err != nil {
				return nil, err
			}
			for _, m := range []struct {
				name string
				dst  *[]float64
			}{{"MCE", &mceL2s}, {"DCE", &dceL2s}, {"DCEr", &dcerL2s}} {
				est, _, err := estimate(m.name, res.Graph.Adj, sl, res.Labels, 3, seed)
				if err != nil {
					return nil, err
				}
				*m.dst = append(*m.dst, metrics.L2(est, H))
			}
		}
		cfg.logf("fig6e: f=%g", f)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", f), fmtF(mean(mceL2s)), fmtF(mean(dceL2s)), fmtF(mean(dcerL2s)),
		})
	}
	return t, nil
}

// Fig6f reproduces Figure 6f: the accuracy-versus-estimation-time scatter
// at f=0.003 (n=10k, d=25, h=3), with the Holdout baseline at
// b ∈ {1,2,4,8} splits. DCEr should reach GS-level accuracy thousands of
// times faster than Holdout.
func Fig6f(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	t := &Table{
		ID:      "fig6f",
		Title:   "Accuracy vs estimation time",
		Params:  fmt.Sprintf("n=%d, d=25, h=3, f=0.003, reps=%d", n, cfg.Reps),
		Columns: []string{"method", "time[s]", "accuracy"},
	}
	type cell struct {
		times, accs []float64
	}
	results := map[string]*cell{}
	order := []string{"GS", "MCE", "LCE", "DCE", "DCEr", "Holdout-b1", "Holdout-b2", "Holdout-b4", "Holdout-b8"}
	for _, name := range order {
		results[name] = &cell{}
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		seed := cfg.Seed + uint64(rep)
		res, err := syntheticGraph(n, 25, 3, seed)
		if err != nil {
			return nil, err
		}
		sl, err := sampleSeeds(res.Labels, 3, 0.003, seed)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"GS", "MCE", "LCE", "DCE", "DCEr"} {
			h, dt, err := estimate(name, res.Graph.Adj, sl, res.Labels, 3, seed)
			if err != nil {
				return nil, err
			}
			acc, err := propagateAccuracy(res.Graph.Adj, sl, res.Labels, 3, h)
			if err != nil {
				return nil, err
			}
			results[name].times = append(results[name].times, dt.Seconds())
			results[name].accs = append(results[name].accs, acc)
		}
		for _, b := range []int{1, 2, 4, 8} {
			start := time.Now()
			h, err := core.EstimateHoldout(res.Graph.Adj, sl, 3, core.HoldoutOptions{Splits: b, Seed: seed})
			if err != nil {
				return nil, err
			}
			dt := time.Since(start)
			acc, err := propagateAccuracy(res.Graph.Adj, sl, res.Labels, 3, h)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("Holdout-b%d", b)
			results[name].times = append(results[name].times, dt.Seconds())
			results[name].accs = append(results[name].accs, acc)
		}
		cfg.logf("fig6f: rep %d done", rep)
	}
	for _, name := range order {
		c := results[name]
		t.Rows = append(t.Rows, []string{name, fmtF(mean(c.times)), fmtF(mean(c.accs))})
	}
	return t, nil
}

// Fig6g reproduces Figure 6g: end-to-end accuracy versus the number of
// classes k (n=10k, d=25, h=3, f=0.01), with a random-assignment baseline.
// DCEr should degrade gracefully while LCE/MCE fall toward random.
func Fig6g(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	methods := []string{"GS", "LCE", "MCE", "DCE", "DCEr", "Holdout"}
	t := &Table{
		ID:      "fig6g",
		Title:   "Estimation & propagation accuracy vs number of classes",
		Params:  fmt.Sprintf("n=%d, d=25, h=3, f=0.01, reps=%d", n, cfg.Reps),
		Columns: append(append([]string{"k"}, methods...), "Random"),
	}
	for k := 2; k <= 8; k++ {
		sums := make([][]float64, len(methods))
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := gen.Generate(gen.Config{
				N: n, M: int(25 * float64(n) / 2), Alpha: gen.Balanced(k),
				H: core.HPlanted(k, 3), Dist: gen.PowerLaw{Exponent: 0.3}, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, k, 0.01, seed)
			if err != nil {
				return nil, err
			}
			accs, err := endToEnd(methods, res.Graph.Adj, sl, res.Labels, k, seed)
			if err != nil {
				return nil, err
			}
			for i, a := range accs {
				sums[i] = append(sums[i], a)
			}
		}
		row := []string{fmt.Sprintf("%d", k)}
		for i := range methods {
			row = append(row, fmtF(mean(sums[i])))
		}
		row = append(row, fmtF(1/float64(k)))
		cfg.logf("fig6g: k=%d", k)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6h reproduces Figure 6h: accuracy of DCEr with r restarts relative to
// the "global minimum" baseline (DCE initialized at the gold standard), for
// k = 3..7 (n=10k, d=15, h=8, f=0.09). With r=10, relative accuracy ≈ 1.
func Fig6h(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	restarts := []int{2, 3, 4, 5, 10}
	t := &Table{
		ID:      "fig6h",
		Title:   "Relative accuracy of DCEr vs restarts (baseline: DCE initialized at GS)",
		Params:  fmt.Sprintf("n=%d, d=15, h=8, f=0.09, reps=%d", n, cfg.Reps),
		Columns: []string{"k", "r=2", "r=3", "r=4", "r=5", "r=10"},
	}
	for k := 3; k <= 7; k++ {
		rel := make([][]float64, len(restarts))
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			H := core.HPlanted(k, 8)
			res, err := gen.Generate(gen.Config{
				N: n, M: int(15 * float64(n) / 2), Alpha: gen.Balanced(k),
				H: H, Dist: gen.PowerLaw{Exponent: 0.3}, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, k, 0.09, seed)
			if err != nil {
				return nil, err
			}
			sums, err := core.Summarize(res.Graph.Adj, sl, k, core.DefaultSummaryOptions())
			if err != nil {
				return nil, err
			}
			// Global-minimum baseline: descend from the planted H itself.
			obj, err := core.NewDCEObjective(sums, core.PathWeights(10, sums.LMax))
			if err != nil {
				return nil, err
			}
			start, err := core.ToFree(H)
			if err != nil {
				return nil, err
			}
			resOpt, err := optimize.GradientDescent(obj.Evaluator(), start, optimize.GDOptions{})
			if err != nil {
				return nil, err
			}
			hGlobal, err := core.FromFree(resOpt.X, k)
			if err != nil {
				return nil, err
			}
			accGlobal, err := propagateAccuracy(res.Graph.Adj, sl, res.Labels, k, hGlobal)
			if err != nil {
				return nil, err
			}
			for ri, r := range restarts {
				est, err := core.EstimateDCE(sums, core.DCEOptions{Lambda: 10, Restarts: r, Seed: seed})
				if err != nil {
					return nil, err
				}
				acc, err := propagateAccuracy(res.Graph.Adj, sl, res.Labels, k, est)
				if err != nil {
					return nil, err
				}
				if accGlobal > 0 {
					rel[ri] = append(rel[ri], acc/accGlobal)
				}
			}
		}
		row := []string{fmt.Sprintf("%d", k)}
		for ri := range restarts {
			row = append(row, fmtF(mean(rel[ri])))
		}
		cfg.logf("fig6h: k=%d", k)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6i reproduces Figure 6i: the homophily sanity check. On a
// heterophilous graph (h=3 pattern), a homophily method (harmonic
// functions) collapses while GS-LinBP and DCEr-LinBP stay accurate.
func Fig6i(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	t := &Table{
		ID:      "fig6i",
		Title:   "Homophily baselines under heterophily",
		Params:  fmt.Sprintf("n=%d, d=15, h=3, reps=%d", n, cfg.Reps),
		Columns: []string{"f", "GS", "DCEr", "Homophily(harmonic)"},
	}
	for _, f := range []float64{0.001, 0.01, 0.1, 0.9} {
		var gsA, dcerA, homA []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := syntheticGraph(n, 15, 3, seed)
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, 3, f, seed)
			if err != nil {
				return nil, err
			}
			accs, err := endToEnd([]string{"GS", "DCEr"}, res.Graph.Adj, sl, res.Labels, 3, seed)
			if err != nil {
				return nil, err
			}
			gsA = append(gsA, accs[0])
			dcerA = append(dcerA, accs[1])
			pred, err := propagation.Harmonic(res.Graph.Adj, sl, 3, propagation.HarmonicOptions{})
			if err != nil {
				return nil, err
			}
			homA = append(homA, metrics.MacroAccuracy(pred, res.Labels, sl, 3))
		}
		cfg.logf("fig6i: f=%g", f)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", f), fmtF(mean(gsA)), fmtF(mean(dcerA)), fmtF(mean(homA)),
		})
	}
	return t, nil
}

// fig6jH is the general (imbalanced) compatibility matrix of Figure 6j.
func fig6jH() *dense.Matrix {
	return dense.FromRows([][]float64{
		{0.2, 0.6, 0.2},
		{0.6, 0.1, 0.3},
		{0.2, 0.3, 0.5},
	})
}

// Fig6j reproduces Figure 6j: end-to-end accuracy under class imbalance
// α = [1/6, 1/3, 1/2] and the general H above (n=10k, d=25).
func Fig6j(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	methods := []string{"GS", "LCE", "MCE", "DCE", "DCEr", "Holdout"}
	t := &Table{
		ID:      "fig6j",
		Title:   "Accuracy vs sparsity under class imbalance alpha=[1/6,1/3,1/2]",
		Params:  fmt.Sprintf("n=%d, d=25, general H, reps=%d", n, cfg.Reps),
		Columns: append([]string{"f"}, methods...),
	}
	alpha := []float64{1.0 / 6, 1.0 / 3, 1.0 / 2}
	for _, f := range []float64{0.0001, 0.001, 0.01, 0.1, 0.9} {
		sums := make([][]float64, len(methods))
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			res, err := gen.Generate(gen.Config{
				N: n, M: int(25 * float64(n) / 2), Alpha: alpha, H: fig6jH(),
				Dist: gen.PowerLaw{Exponent: 0.3}, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			sl, err := sampleSeeds(res.Labels, 3, f, seed)
			if err != nil {
				return nil, err
			}
			accs, err := endToEnd(methods, res.Graph.Adj, sl, res.Labels, 3, seed)
			if err != nil {
				return nil, err
			}
			for i, a := range accs {
				sums[i] = append(sums[i], a)
			}
		}
		row := []string{fmt.Sprintf("%.4f", f)}
		for i := range methods {
			row = append(row, fmtF(mean(sums[i])))
		}
		cfg.logf("fig6j: f=%g", f)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6k reproduces Figure 6k: estimation time of all methods plus
// propagation versus the number of edges m (d=5, h=8, f=0.01). MCE fastest,
// DCE ≈ DCEr for large graphs (summaries dominate), LCE scales with n,
// Holdout off the chart.
func Fig6k(cfg Config) (*Table, error) {
	cfg.defaults()
	t := &Table{
		ID:      "fig6k",
		Title:   "Scalability of all estimators with graph size",
		Params:  fmt.Sprintf("d=5, h=8, f=0.01, maxEdges=%d", cfg.MaxEdges),
		Columns: []string{"m", "MCE[s]", "LCE[s]", "DCE[s]", "DCEr[s]", "Holdout[s]", "prop[s]"},
		Notes:   "Holdout only up to 100k edges.",
	}
	const d = 5
	for _, m := range grow(1000, cfg.MaxEdges, 10) {
		n := 2 * m / d
		res, err := syntheticGraph(n, d, 8, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sl, err := sampleSeeds(res.Labels, 3, 0.01, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", m)}
		for _, name := range []string{"MCE", "LCE", "DCE", "DCEr"} {
			_, dt, err := estimate(name, res.Graph.Adj, sl, res.Labels, 3, cfg.Seed)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtT(dt))
		}
		if m <= 100000 {
			_, dt, err := estimate("Holdout", res.Graph.Adj, sl, res.Labels, 3, cfg.Seed)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtT(dt))
		} else {
			row = append(row, "-")
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
		if _, err := propagation.LinBP(res.Graph.Adj, x, gs, propagation.DefaultLinBPOptions()); err != nil {
			return nil, err
		}
		row = append(row, fmtT(time.Since(start)))
		cfg.logf("fig6k: m=%d", m)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6l reproduces Figure 6l: estimation time versus the number of classes
// k (n=10k, d=25, h=3, f=0.01). The O(k⁴r) optimization term grows for
// DCEr; MCE stays cheap.
func Fig6l(cfg Config) (*Table, error) {
	cfg.defaults()
	n := 10000 / cfg.Scale
	t := &Table{
		ID:      "fig6l",
		Title:   "Scalability with number of classes",
		Params:  fmt.Sprintf("n=%d, d=25, h=3, f=0.01", n),
		Columns: []string{"k", "LCE[s]", "MCE[s]", "DCE[s]", "DCEr[s]", "Holdout[s]"},
	}
	for k := 2; k <= 7; k++ {
		res, err := gen.Generate(gen.Config{
			N: n, M: int(25 * float64(n) / 2), Alpha: gen.Balanced(k),
			H: core.HPlanted(k, 3), Dist: gen.PowerLaw{Exponent: 0.3}, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		sl, err := sampleSeeds(res.Labels, k, 0.01, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", k)}
		for _, name := range []string{"LCE", "MCE", "DCE", "DCEr", "Holdout"} {
			_, dt, err := estimate(name, res.Graph.Adj, sl, res.Labels, k, cfg.Seed)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtT(dt))
		}
		cfg.logf("fig6l: k=%d", k)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
