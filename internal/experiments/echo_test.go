package experiments

import (
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/propagation"
	"factorgraph/internal/sparse"
)

// heteroH is a 2-class heterophilous compatibility matrix.
func heteroH() *dense.Matrix {
	return dense.FromRows([][]float64{{0.2, 0.8}, {0.8, 0.2}})
}

// onlyNodeZeroLabeled is an n-node label vector with node 0 in class 0
// and every other node unlabeled.
func onlyNodeZeroLabeled(n int) []int {
	seed := make([]int, n)
	for i := range seed {
		seed[i] = labels.Unlabeled
	}
	seed[0] = 0
	return seed
}

// TestEchoCancellationExactOnPair verifies the EC loop against an
// independent dense computation of F ← X̃ + WF̃H̃ − DF̃H̃² on a small graph.
func TestEchoCancellationExactOnPair(t *testing.T) {
	w, err := sparse.NewSymmetricFromEdges(3, [][2]int32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := labels.Matrix(onlyNodeZeroLabeled(3), 2)
	h := heteroH()
	const iters = 6
	got, err := echoCancelledLinBP(w, x, h, propagation.LinBPOptions{Iterations: iters, Center: true, S: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Independent reference with the same ε, on the dense W.
	k := 2
	hTilde := dense.AddScalar(h, -1.0/float64(k))
	eps, err := propagation.ScalingFactor(w, hTilde, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hs := dense.Scale(hTilde, eps)
	h2 := dense.Mul(hs, hs)
	xt := dense.AddScalar(x, -1.0/float64(k))
	wd := w.ToDense()
	deg := dense.RowSums(wd)
	f := xt.Clone()
	for it := 0; it < iters; it++ {
		echo := dense.Mul(f, h2)
		for i := 0; i < 3; i++ {
			row := echo.Row(i)
			for j := range row {
				row[j] *= deg[i]
			}
		}
		f = dense.Sub(dense.Add(xt, dense.Mul(wd, dense.Mul(f, hs))), echo)
	}
	if !dense.Equal(got, f, 1e-12) {
		t.Errorf("EC LinBP deviates from reference:\n%v vs\n%v", got, f)
	}
}

// TestEchoCancellationRemovesEcho: on a star with only the center labeled,
// after 2 hops the center's belief without EC contains its own label
// reflected back; EC changes it, and every belief stays finite.
func TestEchoCancellationRemovesEcho(t *testing.T) {
	edges := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	w, err := sparse.NewSymmetricFromEdges(5, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := labels.Matrix(onlyNodeZeroLabeled(5), 2)
	h := heteroH()
	opts := propagation.LinBPOptions{S: 0.5, Iterations: 2}
	noEC, err := propagation.LinBP(w, x, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	withEC, err := echoCancelledLinBP(w, x, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if noEC.At(0, 0) == withEC.At(0, 0) {
		t.Error("EC changed nothing at the echo-prone center")
	}
	for i, v := range withEC.Data {
		if a := noEC.Data[i]; a != a || v != v {
			t.Fatal("NaN belief")
		}
	}
}
