// Package factorgraph is the public API of this reproduction of
// "Factorized Graph Representations for Semi-Supervised Learning from
// Sparse Data" (Krishna Kumar P., Langton, Gatterbauer; SIGMOD 2020).
//
// The package solves automatic node classification (Problem 1.2): given an
// undirected graph, a handful of labeled seed nodes and NO knowledge of how
// classes connect, it (1) estimates the k×k class-compatibility matrix H
// from factorized graph representations — small sketches built from
// non-backtracking path statistics — and (2) propagates the seed labels
// with linearized belief propagation modulated by the estimated H.
//
// Quick start:
//
//	g, _ := factorgraph.NewGraph(n, edges)          // build the graph
//	est, _ := factorgraph.EstimateDCEr(g, seeds, k) // learn H from sparse labels
//	pred, _ := factorgraph.Propagate(g, seeds, k, est.H)
//
// For repeated queries against one graph, build an Engine instead: it
// performs the expensive preprocessing (CSR construction, spectral radius,
// compatibility estimate) once and answers classification queries
// concurrently, with incremental label updates and what-if overlays; see
// engine.go and cmd/serve for the HTTP layer.
//
// The heavy lifting lives in internal packages (sparse CSR kernel,
// generator, estimators, experiment harness); this facade re-exports the
// workflow a downstream user needs.
package factorgraph

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"factorgraph/internal/core"
	"factorgraph/internal/dense"
	"factorgraph/internal/gen"
	"factorgraph/internal/graph"
	"factorgraph/internal/labels"
	"factorgraph/internal/metrics"
	"factorgraph/internal/propagation"
)

// Unlabeled marks an unknown node class in a label slice.
const Unlabeled = labels.Unlabeled

// Graph is an undirected graph; see NewGraph.
type Graph = graph.Graph

// Matrix is a dense matrix; compatibility matrices are k×k Matrix values.
type Matrix = dense.Matrix

// NewGraph builds an undirected, unweighted graph on n nodes from an edge
// list (node ids in [0, n)).
func NewGraph(n int, edges [][2]int32) (*Graph, error) {
	return graph.New(n, edges, nil)
}

// NewWeightedGraph builds an undirected weighted graph.
func NewWeightedGraph(n int, edges [][2]int32, weights []float64) (*Graph, error) {
	return graph.New(n, edges, weights)
}

// NewMatrix builds a matrix from rows; used to specify known compatibility
// matrices in examples and tests.
func NewMatrix(rows [][]float64) *Matrix { return dense.FromRows(rows) }

// Estimate is the result of a compatibility estimation.
type Estimate struct {
	// H is the estimated k×k symmetric doubly-stochastic compatibility
	// matrix.
	H *Matrix
	// Runtime is the wall-clock estimation time.
	Runtime time.Duration
	// Method records which estimator produced the result.
	Method string
}

// EstimateOptions tunes the DCE/DCEr estimators; the zero value reproduces
// the paper's recommended settings (ℓmax=5, λ=10, normalization variant 1,
// non-backtracking paths).
type EstimateOptions struct {
	// LMax is the maximum path length ℓmax (default 5).
	LMax int
	// Lambda is the distance-weight ratio λ (default 10).
	Lambda float64
	// Restarts overrides the number of restarts (default 1 for DCE,
	// 10 for DCEr).
	Restarts int
	// Seed drives restart sampling (DCEr only).
	Seed uint64
}

// sketchOptions is the sketch every estimator and the Engine build:
// non-backtracking, normalization variant 1, ℓmax = lmax (0 means 5).
func sketchOptions(lmax int) core.SummaryOptions {
	return core.SummaryOptions{LMax: lmax, NonBacktracking: true, Variant: core.Variant1}
}

func summarize(g *Graph, seeds []int, k, lmax int) (*core.Summaries, error) {
	return core.Summarize(g.Adj, seeds, k, sketchOptions(lmax))
}

// ErrUnknownEstimator is wrapped by estimation entry points when the
// estimator name does not exist; callers (the HTTP layer) use it to
// distinguish a caller mistake from an estimation failure.
var ErrUnknownEstimator = errors.New("unknown estimator")

// ErrEstimateOptions is wrapped when EstimateOptions do not fit the named
// estimator: options on MCE, LCE or holdout, or a negative ℓmax. Like
// ErrUnknownEstimator it is the caller's mistake, caught before any work.
var ErrEstimateOptions = errors.New("invalid estimator options")

// sketchEstimator is one estimator that runs on the factorized sketches.
type sketchEstimator struct {
	name     string // canonical Estimate.Method
	lmax     int    // default sketch depth
	restarts int    // default restarts; 0 marks MCE, which takes no options
}

// sketchEstimators is the one name table of the sketch estimators — the
// only ones the Engine serves. EstimateBy adds LCE and holdout beside it.
var sketchEstimators = map[string]sketchEstimator{
	"":     {name: "DCEr", lmax: 5, restarts: 10},
	"dcer": {name: "DCEr", lmax: 5, restarts: 10},
	"dce":  {name: "DCE", lmax: 5, restarts: 1},
	"mce":  {name: "MCE", lmax: 1},
}

// sketchEstimatorFor resolves a case-insensitive sketch-estimator name and
// checks opts against it, before anything is counted or computed. It
// returns the estimator and the sketch depth the run needs.
func sketchEstimatorFor(method string, opts EstimateOptions) (sketchEstimator, int, error) {
	se, ok := sketchEstimators[strings.ToLower(method)]
	switch {
	case !ok:
		return se, 0, fmt.Errorf("factorgraph: %w %q (want dcer, dce or mce)", ErrUnknownEstimator, method)
	case se.restarts == 0 && opts != (EstimateOptions{}):
		return se, 0, fmt.Errorf("factorgraph: %w: estimator %q takes none (lmax/lambda/restarts/seed tune DCE and DCEr only)", ErrEstimateOptions, method)
	case opts.LMax < 0:
		return se, 0, fmt.Errorf("factorgraph: %w: negative path length lmax=%d", ErrEstimateOptions, opts.LMax)
	case opts.LMax > 0:
		return se, opts.LMax, nil
	}
	return se, se.lmax, nil
}

// finish turns summaries of depth ≥ lmax into the estimate. It is the
// single source of the DCE option defaults (λ=10, restarts per method):
// the one-shot estimators and the Engine's cached summaries both finish
// here, so they cannot drift apart.
func (se sketchEstimator) finish(s *core.Summaries, lmax int, o EstimateOptions, start time.Time) (*Estimate, error) {
	s = truncateSummaries(s, lmax)
	var h *Matrix
	var err error
	if se.restarts == 0 {
		h, err = core.EstimateMCE(s, core.MCEOptions{})
	} else {
		restarts, lambda := o.Restarts, o.Lambda
		if restarts == 0 {
			restarts = se.restarts
		}
		if lambda == 0 {
			lambda = 10
		}
		h, err = core.EstimateDCE(s, core.DCEOptions{Lambda: lambda, Restarts: restarts, Seed: o.Seed})
	}
	if err != nil {
		return nil, err
	}
	return &Estimate{H: h, Runtime: time.Since(start), Method: se.name}, nil
}

// truncateSummaries views the first lmax sketches of s without copying.
func truncateSummaries(s *core.Summaries, lmax int) *core.Summaries {
	if s.LMax == lmax {
		return s
	}
	return &core.Summaries{K: s.K, LMax: lmax, M: s.M[:lmax], P: s.P[:lmax]}
}

// estimateSketch runs a sketch estimator one-shot over g.
func estimateSketch(method string, g *Graph, seeds []int, k int, opts ...EstimateOptions) (*Estimate, error) {
	var o EstimateOptions
	if len(opts) > 1 {
		return nil, fmt.Errorf("factorgraph: at most one EstimateOptions")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	se, lmax, err := sketchEstimatorFor(method, o)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := summarize(g, seeds, k, lmax)
	if err != nil {
		return nil, err
	}
	return se.finish(s, lmax, o, start)
}

// EstimateBy dispatches to the named estimator ("" means DCEr; names are
// case-insensitive): the sketch estimators of sketchEstimators plus the
// graph-reading baselines LCE and holdout, which only this library
// dispatcher serves. Unknown names wrap ErrUnknownEstimator. The opts only
// apply to DCE/DCEr; passing non-zero options to the other estimators
// wraps ErrEstimateOptions rather than being a silent no-op, so
// hyperparameter sweeps cannot misreport.
func EstimateBy(method string, g *Graph, seeds []int, k int, opts EstimateOptions) (*Estimate, error) {
	m := strings.ToLower(method)
	if _, ok := sketchEstimators[m]; ok {
		return estimateSketch(m, g, seeds, k, opts)
	}
	if m != "lce" && m != "holdout" {
		return nil, fmt.Errorf("factorgraph: %w %q (want dcer, dce, mce, lce or holdout)", ErrUnknownEstimator, method)
	}
	if opts != (EstimateOptions{}) {
		return nil, fmt.Errorf("factorgraph: %w: estimator %q takes none (lmax/lambda/restarts/seed tune DCE and DCEr only)", ErrEstimateOptions, method)
	}
	if m == "lce" {
		return EstimateLCE(g, seeds, k)
	}
	return EstimateHoldout(g, seeds, k, 1)
}

// EstimateDCEr learns H with distant compatibility estimation with
// restarts — the paper's recommended method: robust down to ~1 labeled
// node in 10,000.
func EstimateDCEr(g *Graph, seeds []int, k int, opts ...EstimateOptions) (*Estimate, error) {
	return estimateSketch("dcer", g, seeds, k, opts...)
}

// EstimateDCE learns H with single-start distant compatibility estimation
// (sufficient when labels are not extremely sparse).
func EstimateDCE(g *Graph, seeds []int, k int, opts ...EstimateOptions) (*Estimate, error) {
	return estimateSketch("dce", g, seeds, k, opts...)
}

// EstimateDCErAuto is DCEr with automatic selection of the λ
// hyperparameter by sketch-level cross-validation over the seed labels
// (the paper's stated future work). Returns the estimate and the λ chosen.
func EstimateDCErAuto(g *Graph, seeds []int, k int) (*Estimate, float64, error) {
	start := time.Now()
	h, lambda, err := core.EstimateDCErAuto(g.Adj, seeds, k, core.AutoLambdaOptions{})
	if err != nil {
		return nil, 0, err
	}
	return &Estimate{H: h, Runtime: time.Since(start), Method: "DCEr-auto"}, lambda, nil
}

// EstimateMCE learns H from direct neighbor statistics only (myopic
// compatibility estimation) — fastest, but needs enough labeled neighbor
// pairs.
func EstimateMCE(g *Graph, seeds []int, k int) (*Estimate, error) {
	return estimateSketch("mce", g, seeds, k)
}

// EstimateLCE learns H by minimizing the LinBP energy with the seed labels
// substituted for the unknown beliefs (linear compatibility estimation).
func EstimateLCE(g *Graph, seeds []int, k int) (*Estimate, error) {
	start := time.Now()
	h, err := core.EstimateLCE(g.Adj, seeds, k, core.LCEOptions{})
	if err != nil {
		return nil, err
	}
	return &Estimate{H: h, Runtime: time.Since(start), Method: "LCE"}, nil
}

// EstimateHoldout learns H with the textbook seed/holdout baseline
// (accuracy maximization with inference as a subroutine). Orders of
// magnitude slower than the sketch-based estimators; provided as the
// paper's baseline.
func EstimateHoldout(g *Graph, seeds []int, k int, splits int) (*Estimate, error) {
	start := time.Now()
	h, err := core.EstimateHoldout(g.Adj, seeds, k, core.HoldoutOptions{Splits: splits})
	if err != nil {
		return nil, err
	}
	return &Estimate{H: h, Runtime: time.Since(start), Method: "Holdout"}, nil
}

// Sketches returns the factorized graph representations themselves: the
// ℓmax observed statistics matrices P̂⁽ℓ⁾ over non-backtracking paths
// (normalization variant 1). These k×k sketches are what all estimation
// runs on; exposing them lets downstream users build their own objectives.
func Sketches(g *Graph, seeds []int, k, lmax int) ([]*Matrix, error) {
	s, err := summarize(g, seeds, k, lmax)
	if err != nil {
		return nil, err
	}
	return s.P, nil
}

// GoldStandard measures the compatibility matrix from a fully labeled
// graph (the relative label frequencies between neighbors).
func GoldStandard(g *Graph, truth []int, k int) (*Matrix, error) {
	return core.GoldStandard(g.Adj, truth, k)
}

// Propagate labels every node with linearized belief propagation under the
// compatibility matrix h (paper defaults: s=0.5, 10 iterations). seeds uses
// Unlabeled for unknown nodes; the return value has a class for every node.
func Propagate(g *Graph, seeds []int, k int, h *Matrix) ([]int, error) {
	x, err := labels.Matrix(seeds, k)
	if err != nil {
		return nil, err
	}
	return propagation.LinBPLabels(g.Adj, x, h, propagation.DefaultLinBPOptions())
}

// PropagateBeliefs is Propagate but returns the full n×k belief matrix.
func PropagateBeliefs(g *Graph, seeds []int, k int, h *Matrix) (*Matrix, error) {
	x, err := labels.Matrix(seeds, k)
	if err != nil {
		return nil, err
	}
	return propagation.LinBP(g.Adj, x, h, propagation.DefaultLinBPOptions())
}

// Classify is the end-to-end pipeline of the paper: estimate H with DCEr,
// then propagate — automatic node classification with no prior knowledge
// of class compatibilities. It returns what EstimateDCEr and Propagate
// return (the same H; beliefs equal to rounding), but shares their Krylov
// sequence WʲX: the sketch walks ⌈ℓmax/2⌉ = 3 of it, and LinBP's first
// three rounds are WʲX̃H̃ʲ, so propagation starts at round 3 from the
// sketch's own walks (propagation.State.RunFrom) and multiplies only the
// remaining seven times. That shortcut needs 𝟙ᵀH̃ = 0, which holds because
// DCEr's H comes from core.FromFree, whose rows and columns sum to one by
// construction.
//
// Its n-sized work buffers — the sketch's three walks and the degrees it
// reads, X, and LinBP's F and F·H̃ — come from a pool shared by all calls
// and go back to it before Classify returns: a warm call allocates little
// beyond the labels it returns, and a garbage collection empties the
// pool. The labels and the estimate own nothing pooled.
func Classify(g *Graph, seeds []int, k int) ([]int, *Estimate, error) {
	b, _ := classifyPool.Get().(*classifyBufs)
	if b == nil || b.n != g.Adj.N || b.k != k {
		b = newClassifyBufs(g.Adj.N, k)
	}
	defer classifyPool.Put(b)
	f, est, err := classifyOn(g, seeds, k, b)
	if err != nil {
		return nil, nil, err
	}
	return dense.ArgmaxRows(f), est, nil
}

// classifyPool recycles Classify's classifyBufs between calls. A sync.Pool
// keeps nothing through two collections, so no buffer stays resident once
// calls stop.
var classifyPool sync.Pool

// classifyBufs are the n-sized buffers of one n-node, k-class pipeline
// run, each a view of one slab: the sketch's walks and degrees, X, and
// LinBP's F and F·H̃.
type classifyBufs struct {
	n, k     int
	sketch   core.WalkScratch
	x, f, fh *Matrix
}

// newClassifyBufs allocates the buffers of a run. Every buffer's first use
// overwrites it or clears it.
func newClassifyBufs(n, k int) *classifyBufs {
	nk := n * max(k, 0) // a k the sketch refuses still sizes a slab
	slab := make([]float64, 6*nk+n)
	m := func(i int) *Matrix { return &Matrix{Rows: n, Cols: k, Data: slab[i*nk : (i+1)*nk : (i+1)*nk]} }
	return &classifyBufs{
		n: n, k: k,
		sketch: core.WalkScratch{Walks: []*Matrix{m(0), m(1), m(2)}, Deg: slab[6*nk:]},
		x:      m(3), f: m(4), fh: m(5),
	}
}

// classifyBeliefs is Classify up to the belief matrix, on buffers of its
// own, since F outlives the call.
func classifyBeliefs(g *Graph, seeds []int, k int) (*Matrix, *Estimate, error) {
	return classifyOn(g, seeds, k, newClassifyBufs(g.Adj.N, k))
}

// classifyOn runs the pipeline on b's buffers; F is b.f.
func classifyOn(g *Graph, seeds []int, k int, b *classifyBufs) (*Matrix, *Estimate, error) {
	se, lmax, err := sketchEstimatorFor("dcer", EstimateOptions{})
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	s, walks, err := core.SummarizeWalks(g.Adj, seeds, k, sketchOptions(lmax), core.MaxPlainWalks, &b.sketch)
	if err != nil {
		return nil, nil, err
	}
	est, err := se.finish(s, lmax, EstimateOptions{}, start)
	if err != nil {
		return nil, nil, err
	}
	if err := labels.MatrixInto(b.x, seeds); err != nil {
		return nil, nil, err
	}
	st, err := propagation.NewStateWith(g.Adj, est.H, propagation.DefaultLinBPOptions(), b.f, b.fh)
	if err != nil {
		return nil, nil, err
	}
	f, err := st.RunFrom(b.x, walks)
	if err != nil {
		return nil, nil, err
	}
	return f, est, nil
}

// Accuracy scores predictions on the nodes that are labeled in truth but
// not seeds (micro-averaged).
func Accuracy(pred, truth, seeds []int) float64 {
	return metrics.Accuracy(pred, truth, seeds)
}

// MacroAccuracy macro-averages per-class accuracies (the paper's measure
// under class imbalance).
func MacroAccuracy(pred, truth, seeds []int, k int) float64 {
	return metrics.MacroAccuracy(pred, truth, seeds, k)
}

// GenerateConfig plants a synthetic graph; see Generate.
type GenerateConfig struct {
	N, M  int       // nodes and edges
	Alpha []float64 // class distribution (nil ⇒ balanced over K)
	K     int       // used when Alpha is nil
	H     *Matrix   // symmetric doubly-stochastic compatibility matrix
	// PowerLaw switches from uniform to power-law (coefficient 0.3)
	// degrees.
	PowerLaw bool
	Seed     uint64
}

// Generate creates a synthetic graph with planted class sizes, per-pair
// edge counts and degree distribution (the paper's generator, Section 5),
// returning the graph and ground-truth labels.
func Generate(cfg GenerateConfig) (*Graph, []int, error) {
	alpha := cfg.Alpha
	if alpha == nil {
		if cfg.K < 2 {
			return nil, nil, fmt.Errorf("factorgraph: need Alpha or K ≥ 2")
		}
		alpha = gen.Balanced(cfg.K)
	}
	var dist gen.DegreeDist = gen.Uniform{}
	if cfg.PowerLaw {
		dist = gen.PowerLaw{Exponent: 0.3}
	}
	res, err := gen.Generate(gen.Config{
		N: cfg.N, M: cfg.M, Alpha: alpha, H: cfg.H, Dist: dist, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Labels, nil
}

// SkewedH builds the paper's parametric k-class compatibility matrix with
// skew h (HFromSkew for k=3, its generalization otherwise).
func SkewedH(k int, h float64) *Matrix {
	if k == 3 {
		return core.HFromSkew(h)
	}
	return core.HPlanted(k, h)
}

// SampleSeeds draws a stratified random fraction f of the true labels, the
// paper's seed-sampling protocol.
func SampleSeeds(truth []int, k int, f float64, seed uint64) ([]int, error) {
	return sampleStratified(truth, k, f, seed)
}
