package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"factorgraph/internal/dense"
	"factorgraph/internal/gen"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

// pathGraph builds the 3-node path 0–1–2 of Figure 4.
func pathGraph(t *testing.T) *sparse.CSR {
	t.Helper()
	w, err := sparse.NewSymmetricFromEdges(3, [][2]int32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFigure4NonBacktracking reproduces the paper's Figure 4 illustration:
// with full paths, blue node 0 counts itself as a distance-2 neighbor
// (N⁽²⁾ row [1,0,1]); non-backtracking paths remove the echo ([0,0,1]).
func TestFigure4NonBacktracking(t *testing.T) {
	w := pathGraph(t)
	seed := []int{0, 1, 2} // classes blue=0, orange=1, green=2

	full, err := Summarize(w, seed, 3, SummaryOptions{LMax: 2, NonBacktracking: false})
	if err != nil {
		t.Fatal(err)
	}
	// M⁽²⁾ counts all length-2 paths: node 0 reaches {0, 2}.
	if got := full.M[1].At(0, 0); got != 1 {
		t.Errorf("full paths M⁽²⁾[0][0] = %v, want 1 (backtracking echo)", got)
	}

	nb, err := Summarize(w, seed, 3, SummaryOptions{LMax: 2, NonBacktracking: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := nb.M[1].At(0, 0); got != 0 {
		t.Errorf("NB M⁽²⁾[0][0] = %v, want 0", got)
	}
	if got := nb.M[1].At(0, 2); got != 1 {
		t.Errorf("NB M⁽²⁾[0][2] = %v, want 1", got)
	}
}

// bruteForceNB counts non-backtracking paths of length l between every node
// pair by explicit DFS over edges (u_{j} ≠ u_{j+2} definition, §4.5).
func bruteForceNB(w *sparse.CSR, l int) *dense.Matrix {
	n := w.N
	out := dense.New(n, n)
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		adj[i] = w.Indices[w.IndPtr[i]:w.IndPtr[i+1]]
	}
	var walk func(prev, cur, depth, start int)
	walk = func(prev, cur, depth, start int) {
		if depth == l {
			out.Set(start, cur, out.At(start, cur)+1)
			return
		}
		for _, nxt := range adj[cur] {
			if int(nxt) == prev {
				continue
			}
			walk(cur, int(nxt), depth+1, start)
		}
	}
	for s := 0; s < n; s++ {
		walk(-1, s, 0, s)
	}
	return out
}

// Property (Proposition 4.3): the recurrence W⁽ℓ⁾NB matches brute-force
// enumeration of non-backtracking paths on random graphs up to length 5.
func TestNBRecurrenceMatchesBruteForceProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	f := func() bool {
		n := 3 + r.IntN(6)
		var edges [][2]int32
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.5 {
					edges = append(edges, [2]int32{int32(i), int32(j)})
				}
			}
		}
		if len(edges) == 0 {
			return true
		}
		w, err := sparse.NewSymmetricFromEdges(n, edges, nil)
		if err != nil {
			return false
		}
		const lmax = 5
		powers, err := ExplicitNBPowers(w, lmax)
		if err != nil {
			return false
		}
		for l := 1; l <= lmax; l++ {
			if !dense.Equal(powers[l-1].ToDense(), bruteForceNB(w, l), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property (Algorithm 4.4): the factorized summaries equal the explicit
// ones, M⁽ℓ⁾ = Xᵀ·W⁽ℓ⁾·X, on random graphs with isolated nodes and random
// partial labels, for ℓmax = 1..8, NB and full paths, with and without
// KeepN. SummarizeOn walks only half of ℓmax and gets the rest from the
// product identity, so this is the identity's test: on unit weights every
// quantity is an integer and the sketches must match the explicit powers
// exactly (==); with random weights, to 1e-12 relative. KeepN retains
// exactly ℓmax − 1 walks, N⁽ℓ⁾ = W⁽ℓ⁾X.
func TestFactorizedEqualsExplicitProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(33, 34))
	f := func() bool {
		n := 4 + r.IntN(10)
		k := 2 + r.IntN(3)
		wired := n - r.IntN(3) // nodes past wired are isolated
		var edges [][2]int32
		var weights []float64
		for i := 0; i < wired; i++ {
			for j := i + 1; j < wired; j++ {
				if r.Float64() < 0.5 {
					edges = append(edges, [2]int32{int32(i), int32(j)})
					weights = append(weights, 0.5+1.5*r.Float64())
				}
			}
		}
		if len(edges) == 0 {
			return true
		}
		seed := make([]int, n)
		for i := range seed {
			seed[i] = labels.Unlabeled
			if r.Float64() < 0.6 {
				seed[i] = r.IntN(k)
			}
		}
		seed[0] = 0
		x, _ := labels.Matrix(seed, k)
		xt := dense.Transpose(x)
		const maxL = 8
		for _, weighted := range []bool{false, true} {
			var wts []float64
			if weighted {
				wts = weights
			}
			w, err := sparse.NewSymmetricFromEdges(n, edges, wts)
			if err != nil {
				t.Log(err)
				return false
			}
			powers, err := ExplicitNBPowers(w, maxL)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, nb := range []bool{true, false} {
				// want[ℓ−1] = W⁽ℓ⁾X: NB powers, or plain powers WˡX.
				want := make([]*dense.Matrix, maxL)
				plain := x
				for l := 1; l <= maxL; l++ {
					plain = w.MulDense(plain)
					want[l-1] = plain
					if nb {
						want[l-1] = powers[l-1].MulDense(x)
					}
				}
				for lmax := 1; lmax <= maxL; lmax++ {
					for _, keep := range []bool{false, true} {
						sums, err := Summarize(w, seed, k, SummaryOptions{LMax: lmax, NonBacktracking: nb, KeepN: keep})
						if err != nil {
							t.Log(err)
							return false
						}
						for l := 1; l <= lmax; l++ {
							if !sameUpTo(sums.M[l-1], dense.Mul(xt, want[l-1]), weighted) {
								t.Logf("weighted=%v nb=%v lmax=%d keepN=%v: M⁽%d⁾ = %v, want %v", weighted, nb, lmax, keep, l, sums.M[l-1], dense.Mul(xt, want[l-1]))
								return false
							}
						}
						if !keep {
							continue
						}
						if len(sums.N) != lmax-1 || sums.N == nil {
							t.Logf("lmax=%d: KeepN retained %d walks, want %d", lmax, len(sums.N), lmax-1)
							return false
						}
						for l, nm := range sums.N {
							if !sameUpTo(nm, want[l], weighted) {
								t.Logf("weighted=%v nb=%v lmax=%d: N⁽%d⁾ = %v, want %v", weighted, nb, lmax, l+1, nm, want[l])
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// sameUpTo compares exactly, or to 1e-12 relative to b's largest entry
// when approx is set.
func sameUpTo(a, b *dense.Matrix, approx bool) bool {
	if !approx {
		return dense.Equal(a, b, 0)
	}
	return dense.Equal(a, b, 1e-12*math.Max(1, dense.MaxAbs(b)))
}

// countingTopology counts the dense products a summarization asks for.
type countingTopology struct {
	*sparse.CSR
	products int
}

func (c *countingTopology) MulDenseInto(out, x *dense.Matrix) {
	c.products++
	c.CSR.MulDenseInto(out, x)
}

// TestSummarizeProductCount: the sketch walks half its depth. At ℓmax = 5
// it forms N⁽¹⁾ by a scatter and N⁽²⁾, N⁽³⁾ by two products; KeepN walks one
// more for ApplyEdgeDelta's N⁽⁴⁾. Asking for three plain walks adds none.
func TestSummarizeProductCount(t *testing.T) {
	res, err := gen.Generate(gen.Config{N: 500, M: 2500, Alpha: gen.Balanced(3), H: HFromSkew(3), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seed := append([]int(nil), res.Labels...)
	for i := range seed {
		if i%10 != 0 {
			seed[i] = labels.Unlabeled
		}
	}
	for _, tc := range []struct {
		keepN bool
		plain int
		want  int
	}{{false, 0, 2}, {true, 0, 3}, {false, MaxPlainWalks, 2}} {
		topo := &countingTopology{CSR: res.Graph.Adj}
		if _, _, err := SummarizeWalks(topo, seed, 3, SummaryOptions{LMax: 5, NonBacktracking: true, KeepN: tc.keepN}, tc.plain); err != nil {
			t.Fatal(err)
		}
		if topo.products != tc.want {
			t.Errorf("keepN=%v plain=%d: %d products, want %d", tc.keepN, tc.plain, topo.products, tc.want)
		}
	}
}

// TestSummarizeWalksArePlainPowers: the plain walks SummarizeWalks derives
// from the NB recurrence equal WʲX, exactly on unit weights.
func TestSummarizeWalksArePlainPowers(t *testing.T) {
	res, err := gen.Generate(gen.Config{N: 400, M: 2000, Alpha: gen.Balanced(3), H: HFromSkew(3), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Graph.Adj
	seed := append([]int(nil), res.Labels...)
	for i := range seed {
		if i%7 != 0 {
			seed[i] = labels.Unlabeled
		}
	}
	x, _ := labels.Matrix(seed, 3)
	for _, keep := range []bool{false, true} {
		_, walks, err := SummarizeWalks(w, seed, 3, SummaryOptions{LMax: 5, NonBacktracking: true, KeepN: keep}, MaxPlainWalks)
		if err != nil {
			t.Fatal(err)
		}
		p := x
		for j, got := range walks {
			p = w.MulDense(p)
			if !dense.Equal(got, p, 0) {
				t.Errorf("keepN=%v: walk %d ≠ W^%dX", keep, j+1, j+1)
			}
		}
	}
	if _, _, err := SummarizeWalks(w, seed, 3, SummaryOptions{}, MaxPlainWalks+1); err == nil {
		t.Error("expected an error for too many plain walks")
	}
}

// TestW2NBIdentity checks W⁽²⁾NB = W² − D on a concrete graph (§4.5).
func TestW2NBIdentity(t *testing.T) {
	w, err := sparse.NewSymmetricFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	powers, err := ExplicitNBPowers(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	wd := w.ToDense()
	w2 := dense.Mul(wd, wd)
	for i, d := range w.Degrees() {
		w2.Set(i, i, w2.At(i, i)-d)
	}
	if !dense.Equal(powers[1].ToDense(), w2, 1e-9) {
		t.Errorf("W⁽²⁾NB ≠ W² − D:\n%v vs\n%v", powers[1].ToDense(), w2)
	}
}

// TestConsistencyTheorem41 verifies Theorem 4.1 statistically: on a fully
// labeled balanced synthetic graph, P̂⁽ℓ⁾NB ≈ Hℓ while the full-path
// statistic overestimates the diagonal (Example 4.2 / Figure 5a).
func TestConsistencyTheorem41(t *testing.T) {
	H := HFromSkew(3) // [0.2 0.6 0.2; ...]
	res, err := gen.Generate(gen.Config{
		N: 4000, M: 40000, Alpha: gen.Balanced(3), H: H, Dist: gen.Uniform{}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Summarize(res.Graph.Adj, res.Labels, 3, SummaryOptions{LMax: 2, NonBacktracking: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Summarize(res.Graph.Adj, res.Labels, 3, SummaryOptions{LMax: 2, NonBacktracking: false})
	if err != nil {
		t.Fatal(err)
	}
	h2 := dense.Mul(H, H) // diag 0.44, off 0.28
	// NB statistic close to H².
	if d := dense.FrobeniusDist(nb.P[1], h2); d > 0.05 {
		t.Errorf("NB P̂⁽²⁾ too far from H²: L2 = %v\n%v", d, nb.P[1])
	}
	// Full-path statistic biased upward on the diagonal by O(1/d).
	diagBiasNB := nb.P[1].At(0, 0) - h2.At(0, 0)
	diagBiasFull := full.P[1].At(0, 0) - h2.At(0, 0)
	if diagBiasFull < 0.01 {
		t.Errorf("full-path statistic should overestimate the diagonal, bias = %v", diagBiasFull)
	}
	if math.Abs(diagBiasNB) > diagBiasFull {
		t.Errorf("NB bias %v should be smaller than full-path bias %v", diagBiasNB, diagBiasFull)
	}
}

func TestSummarizeErrors(t *testing.T) {
	w := pathGraph(t)
	if _, err := Summarize(w, []int{0, 1}, 3, SummaryOptions{}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := Summarize(w, []int{-1, -1, -1}, 3, SummaryOptions{}); err == nil {
		t.Error("expected no-labels error")
	}
	if _, err := Summarize(w, []int{0, 1, 2}, 1, SummaryOptions{}); err == nil {
		t.Error("expected k<2 error")
	}
	if _, err := Summarize(w, []int{0, 5, 1}, 3, SummaryOptions{}); err == nil {
		t.Error("expected out-of-range label error")
	}
	if _, err := Summarize(w, []int{0, 1, 2}, 3, SummaryOptions{Variant: 99}); err == nil {
		t.Error("expected unknown-variant error")
	}
}

func TestNormalizationVariants(t *testing.T) {
	m := dense.FromRows([][]float64{{2, 2}, {1, 3}})
	v1, err := Variant1.Normalize(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1.At(0, 0)-0.5) > 1e-12 || math.Abs(v1.At(1, 1)-0.75) > 1e-12 {
		t.Errorf("variant 1 wrong: %v", v1)
	}
	// Variant 2 preserves symmetry of symmetric inputs (M = XᵀWX is
	// symmetric on undirected graphs).
	ms := dense.FromRows([][]float64{{2, 1}, {1, 3}})
	v2, err := Variant2.Normalize(ms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v2.At(0, 1)-v2.At(1, 0)) > 1e-9 {
		t.Errorf("variant 2 not symmetric: %v", v2)
	}
	v3, err := Variant3.Normalize(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dense.Sum(v3)/4-0.5) > 1e-12 {
		t.Errorf("variant 3 average ≠ 1/k: %v", v3)
	}
}

func TestGoldStandardFullyLabeled(t *testing.T) {
	// On a fully labeled planted graph the measured GS equals the planted
	// pair-count distribution row-normalized.
	H := HFromSkew(8)
	res, err := gen.Generate(gen.Config{
		N: 3000, M: 30000, Alpha: gen.Balanced(3), H: H, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := GoldStandard(res.Graph.Adj, res.Labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.FrobeniusDist(gs, H); d > 0.02 {
		t.Errorf("gold standard L2 from planted H = %v\n%v", d, gs)
	}
}

func TestExplicitNBPowersErrors(t *testing.T) {
	w := pathGraph(t)
	if _, err := ExplicitNBPowers(w, 0); err == nil {
		t.Error("expected lmax<1 error")
	}
	one, err := ExplicitNBPowers(w, 1)
	if err != nil || len(one) != 1 {
		t.Fatalf("lmax=1: %v %d", err, len(one))
	}
}
