package registry

import (
	"fmt"

	"factorgraph"
	"factorgraph/internal/graph"
	"factorgraph/internal/labels"
)

// SyntheticSpec plants a partition graph with the paper's generator
// (Section 5): n nodes, m edges, k classes connected by a skewed
// compatibility matrix, with a stratified fraction f of the true labels
// kept as seeds.
type SyntheticSpec struct {
	N int `json:"n"`
	M int `json:"m"`
	// Skew is the compatibility skew h; 0 (or omitted) selects the
	// default 3. Zero-skew graphs are not expressible: their uniform H
	// carries no class signal to estimate or propagate.
	Skew float64 `json:"skew"`
	// F is the labeled seed fraction; 0 (or omitted) selects the default
	// 0.05. Seedless graphs are not expressible: an engine cannot
	// estimate H from zero labels.
	F    float64 `json:"f"`
	Seed uint64  `json:"seed"`
}

// FileSpec loads a graph from TSV files on the server's filesystem.
type FileSpec struct {
	Edges  string `json:"edges"`
	Labels string `json:"labels"`
}

// InlineSpec holds an uploaded graph verbatim: the raw edge-list and
// seed-label payloads. The registry keeps these bytes (not the parsed
// graph) so an evicted engine can be rebuilt without the client
// re-uploading, while eviction still releases the CSR matrix and all
// propagation buffers.
type InlineSpec struct {
	Edges  []byte `json:"-"`
	Labels []byte `json:"-"`
}

// Spec describes how to (re)build one named graph's engine. Exactly one of
// Synthetic, Files or Inline must be set.
type Spec struct {
	Synthetic *SyntheticSpec
	Files     *FileSpec
	Inline    *InlineSpec
	// K is the class count; 0 means infer from the labels (files/inline)
	// or the 3-class demo default (synthetic).
	K int
	// Options configures the engine (estimator, LinBP parameters).
	Options factorgraph.EngineOptions

	// dimsN/M/K cache the known dimensions, filled by validate so inline
	// uploads are parsed once at admission, not once per stats query.
	dimsN, dimsM, dimsK int

	// presetH, when set, is installed as the engine's compatibility
	// estimate instead of running the estimator — the registry fills it
	// from the H persisted at eviction, so a spec-backed rebuild costs one
	// propagation, not estimation + propagation.
	presetH       *factorgraph.Matrix
	presetHMethod string
}

// source names the admission path for stats.
func (s *Spec) source() string {
	switch {
	case s.Synthetic != nil:
		return "synthetic"
	case s.Files != nil:
		return "files"
	case s.Inline != nil:
		return "inline"
	}
	return "engine" // pre-built via RegisterEngine
}

// validate checks that exactly one source is set and that cheap-to-check
// parameters are sane, so registration (not the first query) rejects bad
// specs. Inline payloads are parsed here once to surface syntax errors at
// admission time; the parsed graph is discarded.
func (s *Spec) validate() error {
	sources := 0
	for _, set := range []bool{s.Synthetic != nil, s.Files != nil, s.Inline != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("registry: spec needs exactly one of synthetic, files or inline (got %d)", sources)
	}
	if s.K < 0 || s.K == 1 {
		return fmt.Errorf("registry: k=%d, want 0 (infer) or ≥ 2", s.K)
	}
	if err := s.Options.Validate(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	switch {
	case s.Synthetic != nil:
		sp := s.Synthetic
		if sp.N <= 0 || sp.M <= 0 {
			return fmt.Errorf("registry: synthetic spec needs n > 0 and m > 0, got n=%d m=%d", sp.N, sp.M)
		}
		if sp.F < 0 || sp.F > 1 {
			return fmt.Errorf("registry: synthetic labeled fraction f=%v outside [0,1]", sp.F)
		}
		s.dimsN, s.dimsM, s.dimsK = sp.N, sp.M, s.K
		if s.dimsK == 0 {
			s.dimsK = 3
		}
	case s.Files != nil:
		if s.Files.Edges == "" || s.Files.Labels == "" {
			return fmt.Errorf("registry: file spec needs both edges and labels paths")
		}
	case s.Inline != nil:
		g, _, k, err := graph.ParseUpload(s.Inline.Edges, s.Inline.Labels)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		if s.K != 0 {
			k = s.K
		}
		s.dimsN, s.dimsM, s.dimsK = g.N, g.M, k
	}
	return nil
}

// dims reports (n, m, k) when they are knowable without building: synthetic
// specs carry them, inline specs are parsed for them at registration.
// File-backed specs return zeros until the first build.
func (s *Spec) dims() (n, m, k int) {
	return s.dimsN, s.dimsM, s.dimsK
}

// load materializes the graph, seed labels and class count for this spec.
func (s *Spec) load() (*factorgraph.Graph, []int, int, error) {
	switch {
	case s.Synthetic != nil:
		return s.loadSynthetic()
	case s.Files != nil:
		g, seeds, err := graph.LoadFiles(s.Files.Edges, s.Files.Labels)
		if err != nil {
			return nil, nil, 0, err
		}
		k := s.K
		if k == 0 {
			k = labels.NumClasses(seeds)
		}
		return g, seeds, k, nil
	case s.Inline != nil:
		g, seeds, k, err := graph.ParseUpload(s.Inline.Edges, s.Inline.Labels)
		if err != nil {
			return nil, nil, 0, err
		}
		if s.K != 0 {
			k = s.K
		}
		return g, seeds, k, nil
	}
	return nil, nil, 0, fmt.Errorf("registry: spec has no source")
}

func (s *Spec) loadSynthetic() (*factorgraph.Graph, []int, int, error) {
	sp := s.Synthetic
	k := s.K
	if k == 0 {
		k = 3
	}
	skew := sp.Skew
	if skew == 0 {
		skew = 3
	}
	f := sp.F
	if f == 0 {
		f = 0.05
	}
	g, truth, err := factorgraph.Generate(factorgraph.GenerateConfig{
		N: sp.N, M: sp.M, K: k, H: factorgraph.SkewedH(k, skew), Seed: sp.Seed,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	seeds, err := factorgraph.SampleSeeds(truth, k, f, sp.Seed)
	if err != nil {
		return nil, nil, 0, err
	}
	return g, seeds, k, nil
}

// buildEngine is the default builder: load the spec's graph and run the
// full engine preprocessing (CSR, ρ(W), compatibility estimate). A rebuild
// after eviction reuses the persisted H (presetH), skipping the estimator.
func buildEngine(s Spec) (*factorgraph.Engine, error) {
	g, seeds, k, err := s.load()
	if err != nil {
		return nil, err
	}
	if s.presetH != nil && s.presetH.Rows == k {
		return factorgraph.NewEngineWithH(g, seeds, k, s.presetH, s.presetHMethod, s.Options)
	}
	return factorgraph.NewEngine(g, seeds, k, s.Options)
}
