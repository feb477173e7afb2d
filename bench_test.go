// Benchmarks: one per table/figure of the paper (running the corresponding
// experiment harness at reduced scale — run cmd/experiments for full-scale
// reproductions) plus micro-benchmarks of the kernels the paper's
// complexity claims rest on (SpMM, factorized summarization, the
// graph-size-independent DCE optimization, LinBP propagation).
package factorgraph_test

import (
	"testing"

	"factorgraph"
	"factorgraph/internal/core"
	"factorgraph/internal/dense"
	"factorgraph/internal/experiments"
	"factorgraph/internal/gen"
	"factorgraph/internal/labels"
	"factorgraph/internal/propagation"
)

// benchCfg shrinks the experiment harness so every figure bench completes
// in seconds; shapes (who wins, scaling slopes) are preserved. The
// dataset-replica figures need a gentler scale: Cora has 2708 nodes and 7
// classes, so dividing by 40 leaves too few nodes per class.
func benchCfg(id string) experiments.Config {
	scale := 40
	switch id {
	case "fig7", "fig7d", "fig8", "fig12", "fig13", "fig14":
		scale = 8
	}
	return experiments.Config{Scale: scale, Reps: 1, Seed: 7, MaxEdges: 50_000, Quiet: true}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one bench per paper table/figure ---

func BenchmarkFig3a(b *testing.B) { benchFigure(b, "fig3a") }
func BenchmarkFig3b(b *testing.B) { benchFigure(b, "fig3b") }
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "fig5a") }
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "fig5b") }
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "fig6a") }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "fig6b") }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "fig6c") }
func BenchmarkFig6d(b *testing.B) { benchFigure(b, "fig6d") }
func BenchmarkFig6e(b *testing.B) { benchFigure(b, "fig6e") }
func BenchmarkFig6f(b *testing.B) { benchFigure(b, "fig6f") }
func BenchmarkFig6g(b *testing.B) { benchFigure(b, "fig6g") }
func BenchmarkFig6h(b *testing.B) { benchFigure(b, "fig6h") }
func BenchmarkFig6i(b *testing.B) { benchFigure(b, "fig6i") }
func BenchmarkFig6j(b *testing.B) { benchFigure(b, "fig6j") }
func BenchmarkFig6k(b *testing.B) { benchFigure(b, "fig6k") }
func BenchmarkFig6l(b *testing.B) { benchFigure(b, "fig6l") }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig7d(b *testing.B) { benchFigure(b, "fig7d") }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }

// --- ablation benches for the design choices DESIGN.md calls out ---

func BenchmarkBreakdown(b *testing.B)         { benchFigure(b, "breakdown") }
func BenchmarkAblationEC(b *testing.B)        { benchFigure(b, "ablation-ec") }
func BenchmarkAblationNB(b *testing.B)        { benchFigure(b, "ablation-nb") }
func BenchmarkAblationBP(b *testing.B)        { benchFigure(b, "ablation-bp") }
func BenchmarkAblationOptimizer(b *testing.B) { benchFigure(b, "ablation-optimizer") }

// --- kernel micro-benchmarks ---

// benchGraph builds a standard n=10k, d=25, k=3 workload once.
func benchGraph(b *testing.B, f float64) (*gen.Result, []int) {
	b.Helper()
	res, err := gen.Generate(gen.Config{
		N: 10000, M: 125000, Alpha: gen.Balanced(3),
		H: core.HFromSkew(3), Dist: gen.PowerLaw{Exponent: 0.3}, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	seeds, err := factorgraph.SampleSeeds(res.Labels, 3, f, 5)
	if err != nil {
		b.Fatal(err)
	}
	return res, seeds
}

// BenchmarkSpMM measures W×X, the inner kernel of both summarization and
// propagation (125k edges, k=3).
func BenchmarkSpMM(b *testing.B) {
	res, seeds := benchGraph(b, 0.1)
	x, err := labels.Matrix(seeds, 3)
	if err != nil {
		b.Fatal(err)
	}
	out := dense.New(res.Graph.N, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Graph.Adj.MulDenseInto(out, x)
	}
}

// BenchmarkSummarize measures Algorithm 4.4: all ℓmax=5 non-backtracking
// sketches in O(mkℓmax) — the paper's Example 4.6 kernel.
func BenchmarkSummarize(b *testing.B) {
	res, seeds := benchGraph(b, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Summarize(res.Graph.Adj, seeds, 3, core.DefaultSummaryOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCEOptimize measures the second stage of DCEr alone (10
// restarts): its cost is independent of the graph size — the paper's
// central scalability claim.
func BenchmarkDCEOptimize(b *testing.B) {
	res, seeds := benchGraph(b, 0.01)
	sums, err := core.Summarize(res.Graph.Adj, seeds, 3, core.DefaultSummaryOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateDCE(sums, core.DefaultDCErOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateDCEr measures the full two-step DCEr pipeline
// (summaries + optimization).
func BenchmarkEstimateDCEr(b *testing.B) {
	res, seeds := benchGraph(b, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factorgraph.EstimateDCEr(res.Graph, seeds, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinBP measures 10 propagation iterations (the denominator of
// the paper's "estimation is 28× faster than labeling" claim).
func BenchmarkLinBP(b *testing.B) {
	res, seeds := benchGraph(b, 0.01)
	x, err := labels.Matrix(seeds, 3)
	if err != nil {
		b.Fatal(err)
	}
	h := core.HFromSkew(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := propagation.LinBP(res.Graph.Adj, x, h, propagation.DefaultLinBPOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures planted-graph generation (125k edges).
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(gen.Config{
			N: 10000, M: 125000, Alpha: gen.Balanced(3),
			H: core.HFromSkew(3), Dist: gen.PowerLaw{Exponent: 0.3}, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBCounting contrasts two ways to count non-backtracking paths
// on the same ~2.5k-edge graph: the factorized sketches (Algorithm 4.4,
// n×k intermediates) and the explicit recurrence on n×n sparse matrices
// (Prop. 4.3) — quantifying the paper's §4.6 size argument. The 2m-state
// Hashimoto matrix of §2.6 is a test-only reference in internal/core.
func BenchmarkNBCounting(b *testing.B) {
	res, err := gen.Generate(gen.Config{
		N: 500, M: 2500, Alpha: gen.Balanced(3),
		H: core.HFromSkew(3), Dist: gen.Uniform{}, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	seeds, err := factorgraph.SampleSeeds(res.Labels, 3, 0.1, 5)
	if err != nil {
		b.Fatal(err)
	}
	const lmax = 4
	b.Run("factorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Summarize(res.Graph.Adj, seeds, 3, core.SummaryOptions{LMax: lmax, NonBacktracking: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explicit-recurrence", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ExplicitNBPowers(res.Graph.Adj, lmax); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMCEProjection measures the graph-size-independent MCE
// projection (Eq. 12).
func BenchmarkMCEProjection(b *testing.B) {
	res, seeds := benchGraph(b, 0.1)
	sums, err := core.Summarize(res.Graph.Adj, seeds, 3, core.SummaryOptions{LMax: 1, NonBacktracking: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMCE(sums, core.MCEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
