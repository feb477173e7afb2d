package propagation

import (
	"math/rand/v2"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

// circulantH returns a random k×k circulant matrix with non-negative
// entries summing to one along its first row: doubly stochastic, so its
// centred columns sum to zero (RunFrom's requirement).
func circulantH(rng *rand.Rand, k int) *dense.Matrix {
	row := make([]float64, k)
	sum := 0.0
	for j := range row {
		row[j] = rng.Float64() + 0.1
		sum += row[j]
	}
	h := dense.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			h.Set(i, j, row[(j-i+k)%k]/sum)
		}
	}
	return h
}

// randomProblem returns a random n-node multigraph from 4n edge draws
// (dyadic weights in [0.25, 2] when weighted) and the explicit beliefs of
// about a quarter of its nodes labelled at random among k classes.
func randomProblem(t *testing.T, rng *rand.Rand, n, k int, weighted bool) (*sparse.CSR, *dense.Matrix) {
	t.Helper()
	var edges [][2]int32
	var wts []float64
	for e := 0; e < 4*n; e++ {
		edges = append(edges, [2]int32{int32(rng.IntN(n)), int32(rng.IntN(n))})
		wts = append(wts, float64(1+rng.IntN(8))/4)
	}
	if !weighted {
		wts = nil
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, wts)
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]int, n)
	for i := range seed {
		seed[i] = labels.Unlabeled
		if rng.IntN(4) == 0 {
			seed[i] = rng.IntN(k)
		}
	}
	x, err := labels.Matrix(seed, k)
	if err != nil {
		t.Fatal(err)
	}
	return w, x
}

// refRunFrom is RunFrom as a plain loop on whole matrices: F⁽ᴶ⁾ from the
// walks by Horner's rule (dense.Mul, then add the next walk), or X̃ with no
// walks, then F ← X̃ + W·(F·H̃) with dense.Mul, the flat-scan SpMM and an
// add for every remaining round.
func refRunFrom(w *sparse.CSR, x, hs *dense.Matrix, c float64, walks []*dense.Matrix, iters int) *dense.Matrix {
	xt := x.Clone()
	for i := range xt.Data {
		xt.Data[i] -= c
	}
	f := xt.Clone()
	if len(walks) > 0 {
		t := walks[len(walks)-1]
		for j := len(walks) - 1; j >= 0; j-- {
			t = dense.Mul(t, hs)
			if j > 0 {
				t = dense.Add(t, walks[j-1])
			}
		}
		f = dense.Add(xt, t)
	}
	wfh := dense.New(x.Rows, x.Cols)
	for it := len(walks); it < iters; it++ {
		w.MulDenseIntoSimple(wfh, dense.Mul(f, hs))
		f = dense.Add(xt, wfh)
	}
	return f
}

// TestFoldRoundMatchesReference: Run and RunFrom with 0–3 walks, all on one
// reused State, equal refRunFrom entry for entry under == — for k = 2, 3,
// 4, 5, 7 and 9 (the fold's fixed-width arms and its stack-block arm),
// centred and uncentred, on unweighted and weighted graphs.
func TestFoldRoundMatchesReference(t *testing.T) {
	const n, iters = 70, 6
	rng := rand.New(rand.NewPCG(3, 17))
	for _, k := range []int{2, 3, 4, 5, 7, 9} {
		for _, weighted := range []bool{false, true} {
			w, x := randomProblem(t, rng, n, k, weighted)
			walks := []*dense.Matrix{w.MulDense(x)}
			for len(walks) < 3 {
				walks = append(walks, w.MulDense(walks[len(walks)-1]))
			}
			h := circulantH(rng, k)
			for _, center := range []bool{false, true} {
				st, err := NewState(w, h, LinBPOptions{S: 0.5, Iterations: iters, Center: center})
				if err != nil {
					t.Fatal(err)
				}
				c := 0.0
				if center {
					c = 1.0 / float64(k)
				}
				check := func(what string, got *dense.Matrix, j int) {
					t.Helper()
					want := refRunFrom(w, x, st.hScaled, c, walks[:j], iters)
					for i, v := range want.Data {
						if got.Data[i] != v {
							t.Fatalf("k=%d weighted=%v center=%v %s: entry %d is %v, reference %v",
								k, weighted, center, what, i, got.Data[i], v)
						}
					}
				}
				for j := 3; j >= 0; j-- {
					got, err := st.RunFrom(x, walks[:j])
					if err != nil {
						t.Fatal(err)
					}
					check("RunFrom", got, j)
				}
				got, err := st.Run(x)
				if err != nil {
					t.Fatal(err)
				}
				check("Run", got, 0)
			}
		}
	}
}
