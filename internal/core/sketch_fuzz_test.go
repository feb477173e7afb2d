package core

import (
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

// FuzzSketchIdentity: the half-depth sketch equals XᵀW⁽ℓ⁾X from the
// explicit powers, exactly, on any small graph. The input decodes to a
// header (n ≤ 12, k ≤ 4, ℓmax 1..8, the NB, weighted and KeepN flags), one
// label byte per node and then edges, repeats dropped; weights are integers
// up to 4, so every walk count is an integer far below 2⁵³ and the
// comparison is ==. Summarization must never panic.
func FuzzSketchIdentity(f *testing.F) {
	f.Add([]byte{5, 1, 0x0c, 0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{11, 2, 0x3f, 0, 9, 1, 9, 2, 9, 3, 9, 0, 9, 1, 9, 0, 5, 3, 7, 1, 2, 2, 2, 8, 11, 4, 6, 1})
	f.Add([]byte{2, 0, 0x01, 1, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		n, k := 1+int(b[0])%12, 2+int(b[1])%3
		lmax := 1 + int(b[2]&7)
		nb, weighted, keep := b[2]&8 != 0, b[2]&16 != 0, b[2]&32 != 0
		b = b[3:]
		if len(b) < n {
			return
		}
		seed := make([]int, n)
		for i := range seed {
			seed[i] = int(b[i]) % (k + 1)
			if seed[i] == k {
				seed[i] = labels.Unlabeled
			}
		}
		b = b[n:]
		step := 2
		if weighted {
			step = 3
		}
		var edges [][2]int32
		var wts []float64
		seen := map[[2]int32]bool{}
		for ; len(b) >= step; b = b[step:] {
			u, v := int32(int(b[0])%n), int32(int(b[1])%n)
			if seen[[2]int32{u, v}] || seen[[2]int32{v, u}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			edges = append(edges, [2]int32{u, v})
			if weighted {
				wts = append(wts, float64(1+b[2]%4))
			}
		}
		w, err := sparse.NewSymmetricFromEdges(n, edges, wts)
		if err != nil {
			t.Fatal(err)
		}
		sums, err := Summarize(w, seed, k, SummaryOptions{LMax: lmax, NonBacktracking: nb, KeepN: keep})
		if labels.NumLabeled(seed) == 0 {
			if err == nil {
				t.Fatal("summarized a graph without labels")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		x, _ := labels.Matrix(seed, k)
		xt := dense.Transpose(x)
		powers, err := ExplicitNBPowers(w, lmax)
		if err != nil {
			t.Fatal(err)
		}
		walk := x
		for l := 1; l <= lmax; l++ {
			walk = w.MulDense(walk)
			want := dense.Mul(xt, walk)
			if nb {
				want = dense.Mul(xt, powers[l-1].MulDense(x))
			}
			if !dense.Equal(sums.M[l-1], want, 0) {
				t.Fatalf("nb=%v lmax=%d: M⁽%d⁾ = %v, want %v", nb, lmax, l, sums.M[l-1], want)
			}
		}
		if keep && len(sums.N) != lmax-1 {
			t.Fatalf("KeepN retained %d walks at ℓmax = %d", len(sums.N), lmax)
		}
	})
}
