package core

import (
	"fmt"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

// Normalization selects how the raw label-count matrices M⁽ℓ⁾ are turned
// into observed statistics matrices P̂⁽ℓ⁾ (Section 4.3).
type Normalization int

const (
	// Variant1 is the row-stochastic normalization diag(M1)⁻¹M (Eq. 9),
	// the paper's recommended default.
	Variant1 Normalization = iota + 1
	// Variant2 is the LGC-style symmetric normalization
	// diag(M1)^(−1/2)·M·diag(M1)^(−1/2) (Eq. 10).
	Variant2
	// Variant3 scales M so the average entry is 1/k (Eq. 11).
	Variant3
)

// Normalize applies the selected variant to a k×k statistics matrix.
func (v Normalization) Normalize(m *dense.Matrix) (*dense.Matrix, error) {
	switch v {
	case Variant1:
		return dense.RowNormalize(m), nil
	case Variant2:
		return dense.SymNormalize(m), nil
	case Variant3:
		return dense.ScaleNormalize(m), nil
	default:
		return nil, fmt.Errorf("core: unknown normalization variant %d", int(v))
	}
}

// SummaryOptions configures Summarize.
type SummaryOptions struct {
	// LMax is the maximum path length ℓmax (default 5, the paper's
	// recommended setting, Result 1).
	LMax int
	// NonBacktracking selects the consistent NB-path statistics of §4.5
	// (default in the paper; the full-path variant exists for Fig 5a).
	NonBacktracking bool
	// Variant selects the normalization (default Variant1).
	Variant Normalization
	// KeepN retains the n×k neighborhood matrices N⁽ℓ⁾ on the result so
	// ApplyEdgeDelta can maintain the sketches under streaming edge
	// mutations in o(1) per M⁽ℓ⁾ entry. It walks the recurrence to
	// ℓmax − 1, the deepest N⁽ℓ⁾ ApplyEdgeDelta reads, and costs that many
	// n×k float64 matrices of residency.
	KeepN bool
}

func (o *SummaryOptions) defaults() {
	if o.LMax == 0 {
		o.LMax = 5
	}
	if o.Variant == 0 {
		o.Variant = Variant1
	}
}

// DefaultSummaryOptions returns ℓmax=5, non-backtracking, variant 1.
func DefaultSummaryOptions() SummaryOptions {
	return SummaryOptions{LMax: 5, NonBacktracking: true, Variant: Variant1}
}

// Summaries holds the factorized graph representations: for each path
// length ℓ ∈ [ℓmax], the raw k×k label-count matrix M⁽ℓ⁾ = XᵀW⁽ℓ⁾X and its
// normalized statistics matrix P̂⁽ℓ⁾. Their size is independent of the
// graph — this is the sketch all estimation runs on (Figure 2) — except
// when built with KeepN, which retains the n×k N⁽ℓ⁾ matrices so the
// sketches can track streaming edge mutations via ApplyEdgeDelta.
type Summaries struct {
	K    int
	LMax int
	M    []*dense.Matrix // M[ℓ−1] = M⁽ℓ⁾
	P    []*dense.Matrix // P[ℓ−1] = P̂⁽ℓ⁾

	// N (KeepN builds only) retains N[ℓ−1] = N⁽ℓ⁾ for ℓ = 1..ℓmax−1, the
	// n×k neighborhood matrices of the recurrence, frozen at summarization
	// time (empty, not nil, at ℓmax = 1). N⁽ℓmax⁾ is never read, so it is
	// not kept. Variant is the normalization the P̂ matrices were produced
	// with; ApplyEdgeDelta re-applies it after updating M.
	N       []*dense.Matrix
	Variant Normalization
}

// MemoryBytes is the resident size of the retained walks N: zero for a nil
// or non-KeepN sketch, (ℓmax − 1)·8·n·k bytes otherwise. The k×k sketches
// themselves are negligible and not counted.
func (s *Summaries) MemoryBytes() int64 {
	if s == nil {
		return 0
	}
	var b int64
	for _, m := range s.N {
		b += 8 * int64(len(m.Data))
	}
	return b
}

// Topology is the adjacency view Summarize actually needs: dimensions, the
// rows of the labeled nodes (N⁽¹⁾ = WX is a scatter from them), a
// row-parallel dense multiply and weighted degrees. *sparse.CSR is the
// canonical implementation; internal/delta's overlay Graph satisfies it
// too, so a dirty streaming-mutation overlay can be sketched directly —
// summarization never forces a compaction. Row must return a symmetric
// matrix's columns in ascending order, as exec.RowIterator does.
type Topology interface {
	Dim() int
	Row(u int) (cols []int32, weights []float64)
	MulDenseInto(out, x *dense.Matrix)
	Degrees() []float64
}

// Summarize computes the graph summaries of Algorithm 4.4 over a CSR; see
// SummarizeOn for the algorithm.
func Summarize(w *sparse.CSR, seed []int, k int, opts SummaryOptions) (*Summaries, error) {
	return SummarizeOn(w, seed, k, opts)
}

// SummarizeOn computes the graph summaries of Algorithm 4.4 in
// O(m·k·⌈ℓmax/2⌉ + n·k²·ℓmax). It walks the non-backtracking recurrence
// (Proposition 4.3)
//
//	N⁽¹⁾ = WX,  N⁽²⁾ = WN⁽¹⁾ − DX,  N⁽ℓ⁾ = WN⁽ℓ⁻¹⁾ − (D−I)N⁽ℓ⁻²⁾
//
// only to depth h = ⌈ℓmax/2⌉ (h = ℓmax when ℓmax ≤ 2), with N⁽¹⁾ a
// scatter from the labeled rows rather than a product, and takes
// M⁽ℓ⁾ = XᵀN⁽ℓ⁾ for ℓ ≤ h. Every deeper sketch comes from walks of half its
// length: with a = ⌊ℓ/2⌋, b = ℓ − a and N⁽⁰⁾ = X,
//
//	M⁽ℓ⁾ = N⁽ᵃ⁾ᵀN⁽ᵇ⁾ − N⁽ᵃ⁻¹⁾ᵀ(D−I)N⁽ᵇ⁻¹⁾ + [a ≥ 2]·M⁽ℓ⁻²⁾
//
// because the recurrence makes W⁽ᵃ⁾W⁽ᵇ⁾ − W⁽ᵃ⁻¹⁾(D−I)W⁽ᵇ⁻¹⁾ equal to
// W⁽ᵃ⁺ᵇ⁾ − W⁽ᵃ⁺ᵇ⁻²⁾ for a, b ≥ 2 and to W⁽ᵃ⁺ᵇ⁾ for a = 1. Each k×k Gram
// term is one flat pass over the rows, its sums in registers for the
// benchmarked class counts k = 3 and 5. On unit weights every
// quantity is an integer, so the sketches are bit-identical to walking the
// recurrence ℓmax deep; with weights they agree to rounding. P̂⁽ℓ⁾ =
// normalize(M⁽ℓ⁾). KeepN walks to ℓmax − 1 instead and retains the walks;
// the sketches follow the same rule either way.
//
// With opts.NonBacktracking = false it instead uses the plain powers
// N⁽ℓ⁾ = WN⁽ℓ⁻¹⁾ and M⁽ℓ⁾ = N⁽ᵃ⁾ᵀN⁽ᵇ⁾, whose statistics are biased
// (Theorem 4.1) — kept for the Figure 5a comparison.
//
// seed is the sparse label vector (labels.Unlabeled for unknown nodes).
func SummarizeOn(w Topology, seed []int, k int, opts SummaryOptions) (*Summaries, error) {
	s, _, err := SummarizeWalks(w, seed, k, opts, 0)
	return s, err
}

// MaxPlainWalks is the most plain walks SummarizeWalks derives.
const MaxPlainWalks = 3

// SummarizeWalks is SummarizeOn that also returns the first plain walks
// WʲX, j = 1..plain (plain ≤ MaxPlainWalks), which LinBP's first rounds
// multiply out (propagation.State.RunFrom). The sketch walks them already:
// N⁽¹⁾ = WX, and the non-backtracking recurrence gives the rest with O(nk)
// corrections,
//
//	W²X = N⁽²⁾ + DX,  W³X = N⁽³⁾ + (D−I)N⁽¹⁾ + W·DX,
//
// where W·DX is a second scatter from the labeled rows. The walk runs at
// least plain deep, so asking for walks never changes the sketches.
func SummarizeWalks(w Topology, seed []int, k int, opts SummaryOptions, plain int) (*Summaries, []*dense.Matrix, error) {
	n := w.Dim()
	if len(seed) != n {
		return nil, nil, fmt.Errorf("core: %d seed labels for %d nodes", len(seed), n)
	}
	if k < 2 {
		return nil, nil, fmt.Errorf("core: k=%d, need at least 2 classes", k)
	}
	if opts.LMax < 0 {
		return nil, nil, fmt.Errorf("core: negative path length ℓmax=%d", opts.LMax)
	}
	if plain < 0 || plain > MaxPlainWalks {
		return nil, nil, fmt.Errorf("core: %d plain walks, want 0..%d", plain, MaxPlainWalks)
	}
	opts.defaults()
	var lab []int32 // the labeled nodes, ascending
	for i, c := range seed {
		if c == labels.Unlabeled {
			continue
		}
		if c < 0 || c >= k {
			return nil, nil, fmt.Errorf("core: node %d has label %d outside [0,%d)", i, c, k)
		}
		lab = append(lab, int32(i))
	}
	if len(lab) == 0 {
		return nil, nil, fmt.Errorf("core: no labeled nodes to summarize")
	}
	lmax, nb := opts.LMax, opts.NonBacktracking
	half := lmax
	if lmax > 2 {
		half = (lmax + 1) / 2
	}
	depth := max(half, plain)
	if opts.KeepN {
		depth = max(depth, lmax-1)
	}
	deg := w.Degrees()

	// walks[ℓ−1] = N⁽ℓ⁾.
	walks := make([]*dense.Matrix, depth)
	walks[0] = dense.New(n, k)
	scatterSeeds(w, lab, seed, nil, walks[0])
	for l := 2; l <= depth; l++ {
		next := dense.New(n, k)
		w.MulDenseInto(next, walks[l-2])
		switch {
		case nb && l == 2: // − DX
			for _, i := range lab {
				next.Data[int(i)*k+seed[i]] -= deg[i]
			}
		case nb: // − (D−I)·N⁽ℓ⁻²⁾
			for i, d := range deg {
				c := d - 1
				if c == 0 {
					continue
				}
				nrow := next.Data[i*k : (i+1)*k]
				for j, v := range walks[l-3].Data[i*k : (i+1)*k] {
					nrow[j] -= c * v
				}
			}
		}
		walks[l-1] = next
	}

	s := &Summaries{K: k, LMax: lmax, M: make([]*dense.Matrix, lmax), P: make([]*dense.Matrix, lmax), Variant: opts.Variant}
	for l := 1; l <= half; l++ {
		s.M[l-1] = labeledGram(walks[l-1], lab, seed)
	}
	var terms []gramTerm
	for l := half + 1; l <= lmax; l++ {
		a, b := l/2, l-l/2
		m := dense.New(k, k)
		s.M[l-1] = m
		terms = append(terms, gramTerm{dst: m.Data, a: walks[a-1].Data, b: walks[b-1].Data})
		switch {
		case !nb:
		case a == 1: // − Xᵀ(D−I)N⁽ᵇ⁻¹⁾: X is zero off the labeled rows
			addLabeledGram(m, walks[b-2], lab, seed, deg)
		default:
			terms = append(terms, gramTerm{dst: m.Data, a: walks[a-2].Data, b: walks[b-2].Data, shift: true})
		}
	}
	gramPass(terms, deg, k)
	for l := half + 1; l <= lmax; l++ {
		if nb && l/2 >= 2 {
			dense.AddInPlace(s.M[l-1], s.M[l-3])
		}
	}
	for l, m := range s.M {
		p, err := opts.Variant.Normalize(m)
		if err != nil {
			return nil, nil, err
		}
		s.P[l] = p
	}
	if opts.KeepN {
		s.N = append([]*dense.Matrix{}, walks[:lmax-1]...)
	}
	if plain == 0 {
		return s, nil, nil
	}
	out := walks[:plain]
	if !nb {
		return s, out, nil
	}
	if opts.KeepN { // s.N shares the walks the corrections below rewrite
		for j := 1; j < plain; j++ {
			out[j] = out[j].Clone()
		}
	}
	if plain >= 2 { // W²X = N⁽²⁾ + DX
		for _, i := range lab {
			out[1].Data[int(i)*k+seed[i]] += deg[i]
		}
	}
	if plain >= 3 { // W³X = N⁽³⁾ + (D−I)N⁽¹⁾ + W·DX
		for i, d := range deg {
			c := d - 1
			p3 := out[2].Data[i*k : (i+1)*k]
			for j, v := range out[0].Data[i*k : (i+1)*k] {
				p3[j] += c * v
			}
		}
		scatterSeeds(w, lab, seed, deg, out[2])
	}
	return s, out, nil
}

// scatterSeeds adds W·S·X into dst from the labeled rows alone, S =
// diag(scale) (the identity when scale is nil): W is symmetric, so each
// labeled row i adds its weights, times scale[i], into column seed[i] of its
// neighbors' rows. Into a zero dst with no scale that is N⁽¹⁾ = WX, and
// since a row receives its labeled neighbors in ascending id order, the
// order MulDenseInto's row gather adds them in, it is bit-identical to the
// product for any weights.
func scatterSeeds(w Topology, lab []int32, seed []int, scale []float64, dst *dense.Matrix) {
	k := dst.Cols
	for _, i := range lab {
		c := seed[i]
		cols, wts := w.Row(int(i))
		for p, j := range cols {
			wv := 1.0
			if wts != nil {
				wv = wts[p]
			}
			if scale != nil {
				wv *= scale[i]
			}
			dst.Data[int(j)*k+c] += wv
		}
	}
}

// labeledGram returns XᵀN, summing N's labeled rows into their classes'
// rows.
func labeledGram(nm *dense.Matrix, lab []int32, seed []int) *dense.Matrix {
	m := dense.New(nm.Cols, nm.Cols)
	for _, i := range lab {
		mrow := m.Row(seed[i])
		for j, v := range nm.Row(int(i)) {
			mrow[j] += v
		}
	}
	return m
}

// addLabeledGram accumulates m −= Xᵀ(D−I)N over the labeled rows.
func addLabeledGram(m, nm *dense.Matrix, lab []int32, seed []int, deg []float64) {
	for _, i := range lab {
		c := deg[i] - 1
		mrow := m.Row(seed[i])
		for j, v := range nm.Row(int(i)) {
			mrow[j] -= c * v
		}
	}
}

// gramTerm is one k×k Gram product of two n×k walks, dst += aᵀ·b, or
// dst −= aᵀ(D−I)b when shift is set.
type gramTerm struct {
	dst, a, b []float64
	shift     bool
}

// gramPass accumulates every term, one flat pass over the rows each.
func gramPass(terms []gramTerm, deg []float64, k int) {
	for _, t := range terms {
		switch k {
		case 3:
			gram3(t, deg)
		case 5:
			gram5(t, deg)
		default:
			gramWide(t, deg, k)
		}
	}
}

// gram3 is a k = 3 term with all nine sums in registers.
func gram3(t gramTerm, deg []float64) {
	var s00, s01, s02, s10, s11, s12, s20, s21, s22 float64
	a, b := t.a[:3*len(deg)], t.b[:3*len(deg)]
	for i, d := range deg {
		a0, a1, a2 := a[3*i], a[3*i+1], a[3*i+2]
		if t.shift {
			c := 1 - d
			a0, a1, a2 = c*a0, c*a1, c*a2
		}
		b0, b1, b2 := b[3*i], b[3*i+1], b[3*i+2]
		s00, s01, s02 = s00+a0*b0, s01+a0*b1, s02+a0*b2
		s10, s11, s12 = s10+a1*b0, s11+a1*b1, s12+a1*b2
		s20, s21, s22 = s20+a2*b0, s21+a2*b1, s22+a2*b2
	}
	d := (*[9]float64)(t.dst)
	d[0], d[1], d[2] = d[0]+s00, d[1]+s01, d[2]+s02
	d[3], d[4], d[5] = d[3]+s10, d[4]+s11, d[5]+s12
	d[6], d[7], d[8] = d[6]+s20, d[7]+s21, d[8]+s22
}

// gram5 is a k = 5 term: one pass per row of the product, its five sums
// in registers.
func gram5(t gramTerm, deg []float64) {
	a, b := t.a[:5*len(deg)], t.b[:5*len(deg)]
	for p := 0; p < 5; p++ {
		var s0, s1, s2, s3, s4 float64
		for i, d := range deg {
			av := a[5*i+p]
			if t.shift {
				av *= 1 - d
			}
			r := (*[5]float64)(b[5*i:])
			s0, s1, s2, s3, s4 = s0+av*r[0], s1+av*r[1], s2+av*r[2], s3+av*r[3], s4+av*r[4]
		}
		o := (*[5]float64)(t.dst[5*p:])
		o[0], o[1], o[2], o[3], o[4] = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3, o[4]+s4
	}
}

// gramWide is any other k: for each row p of the product, four columns at
// a time in register sums, then the leftover columns one by one.
func gramWide(t gramTerm, deg []float64, k int) {
	coef := func(i int) float64 {
		if t.shift {
			return 1 - deg[i]
		}
		return 1
	}
	for p := 0; p < k; p++ {
		q := 0
		for ; q+4 <= k; q += 4 {
			var s0, s1, s2, s3 float64
			for i := range deg {
				av := coef(i) * t.a[i*k+p]
				bq := t.b[i*k+q : i*k+q+4 : i*k+q+4]
				s0, s1, s2, s3 = s0+av*bq[0], s1+av*bq[1], s2+av*bq[2], s3+av*bq[3]
			}
			o := t.dst[p*k+q : p*k+q+4 : p*k+q+4]
			o[0], o[1], o[2], o[3] = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3
		}
		for ; q < k; q++ {
			var s float64
			for i := range deg {
				s += coef(i) * t.a[i*k+p] * t.b[i*k+q]
			}
			t.dst[p*k+q] += s
		}
	}
}

// walkRow returns the length-l walk-statistics row for node: the one-hot
// X row for l = 0, the retained N⁽ˡ⁾ row otherwise. Nodes added after the
// summarization (beyond the retained matrices) and unlabeled l = 0 rows
// are zero; buf is scratch for those cases.
func (s *Summaries) walkRow(l, node int, seed []int, buf []float64) []float64 {
	if l == 0 {
		for j := range buf {
			buf[j] = 0
		}
		if c := seed[node]; c != labels.Unlabeled {
			buf[c] = 1
		}
		return buf
	}
	if nm := s.N[l-1]; node < nm.Rows {
		return nm.Row(node)
	}
	for j := range buf {
		buf[j] = 0
	}
	return buf
}

// ApplyEdgeDelta folds one undirected edge-weight change Δw on (u, v)
// into the retained sketches in O(ℓmax²·k²) — o(1) per M⁽ℓ⁾ entry,
// independent of n and m. The ℓ = 1 update is exact:
//
//	ΔM⁽¹⁾ = Δw·(x_u ⊗ x_v + x_v ⊗ x_u)
//
// For ℓ ≥ 2 it applies the first-order walk expansion
// Δ(W⁽ℓ⁾) ≈ Σ_{a+b=ℓ−1} W⁽a⁾·ΔW·W⁽b⁾ using the retained N⁽ℓ⁾ = W⁽ℓ⁾X:
//
//	ΔM⁽ℓ⁾ ≈ Δw·Σ_{a+b=ℓ−1} (N⁽a⁾_u ⊗ N⁽b⁾_v + N⁽a⁾_v ⊗ N⁽b⁾_u),  N⁽⁰⁾ = X
//
// which drops the O(Δw²) cross terms and the degree shift in the
// non-backtracking correction; the owner bounds the accumulated |Δw|
// drift and re-summarizes past a threshold. The N matrices themselves are
// left frozen (their staleness is the same second order). P̂ matrices are
// re-normalized from the updated M. seed must be the label vector the
// summaries were computed at.
func (s *Summaries) ApplyEdgeDelta(seed []int, u, v int, dw float64) error {
	if s.N == nil {
		return fmt.Errorf("core: summaries built without KeepN cannot apply edge deltas")
	}
	if dw == 0 {
		return nil
	}
	bufA := make([]float64, s.K)
	bufB := make([]float64, s.K)
	for l := 1; l <= s.LMax; l++ {
		m := s.M[l-1]
		for a := 0; a <= l-1; a++ {
			b := l - 1 - a
			addOuter(m, s.walkRow(a, u, seed, bufA), s.walkRow(b, v, seed, bufB), dw)
			if u != v {
				addOuter(m, s.walkRow(a, v, seed, bufA), s.walkRow(b, u, seed, bufB), dw)
			}
		}
		p, err := s.Variant.Normalize(m)
		if err != nil {
			return err
		}
		s.P[l-1] = p
	}
	return nil
}

// addOuter accumulates m += c·(a ⊗ b) for k-vectors a, b.
func addOuter(m *dense.Matrix, a, b []float64, c float64) {
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := m.Row(i)
		s := c * av
		for j, bv := range b {
			row[j] += s * bv
		}
	}
}

// GoldStandard measures the "true" compatibility matrix from a fully (or
// maximally) labeled graph: the row-normalized neighbor label-count matrix
// |XᵀWX|_row (Section 5.3: "if we know all labels in a graph, then we can
// simply measure the relative frequencies of classes between neighboring
// nodes").
func GoldStandard(w *sparse.CSR, truth []int, k int) (*dense.Matrix, error) {
	s, err := Summarize(w, truth, k, SummaryOptions{LMax: 1, Variant: Variant1})
	if err != nil {
		return nil, err
	}
	return s.P[0], nil
}

// ExplicitNBPowers returns W⁽ℓ⁾NB for ℓ = 1..lmax as explicit sparse
// matrices via the recurrence of Proposition 4.3:
//
//	W⁽¹⁾ = W, W⁽²⁾ = W² − D, W⁽ℓ⁾ = W·W⁽ℓ⁻¹⁾ − (D−I)·W⁽ℓ⁻²⁾.
//
// This is the expensive strategy Figure 5b benchmarks against the
// factorized Algorithm 4.4; intermediate results densify quickly.
func ExplicitNBPowers(w *sparse.CSR, lmax int) ([]*sparse.CSR, error) {
	if lmax < 1 {
		return nil, fmt.Errorf("core: lmax=%d, want ≥ 1", lmax)
	}
	deg := w.Degrees()
	out := make([]*sparse.CSR, lmax)
	out[0] = w
	if lmax == 1 {
		return out, nil
	}
	w2, err := sparse.Mul(w, w)
	if err != nil {
		return nil, err
	}
	negD := make([]float64, w.N)
	for i, d := range deg {
		negD[i] = -d
	}
	out[1], err = sparse.AddDiag(w2, negD)
	if err != nil {
		return nil, err
	}
	for l := 3; l <= lmax; l++ {
		prod, err := sparse.Mul(w, out[l-2])
		if err != nil {
			return nil, err
		}
		// prod − (D−I)·out[l−3]: scale rows of the older matrix.
		older := out[l-3]
		coords := make([]sparse.Coord, 0, prod.NNZ()+older.NNZ())
		for i := 0; i < prod.N; i++ {
			for p := prod.IndPtr[i]; p < prod.IndPtr[i+1]; p++ {
				wv := 1.0
				if prod.Data != nil {
					wv = prod.Data[p]
				}
				coords = append(coords, sparse.Coord{Row: int32(i), Col: prod.Indices[p], W: wv})
			}
			c := deg[i] - 1
			if c == 0 {
				continue
			}
			for p := older.IndPtr[i]; p < older.IndPtr[i+1]; p++ {
				wv := 1.0
				if older.Data != nil {
					wv = older.Data[p]
				}
				coords = append(coords, sparse.Coord{Row: int32(i), Col: older.Indices[p], W: -c * wv})
			}
		}
		out[l-1], err = sparse.NewFromCoords(prod.N, coords)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
