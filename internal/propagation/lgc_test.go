package propagation

import (
	"math/rand/v2"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/labels"
	"factorgraph/internal/sparse"
)

func cliquePair(t *testing.T) *sparse.CSR {
	t.Helper()
	var edges [][2]int32
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
			edges = append(edges, [2]int32{int32(i + 5), int32(j + 5)})
		}
	}
	edges = append(edges, [2]int32{4, 5})
	w, err := sparse.NewSymmetricFromEdges(10, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLGCHomophily(t *testing.T) {
	w := cliquePair(t)
	seed := seedVector(10, map[int]int{0: 0, 9: 1})
	pred, err := LGC(w, seed, 2, LGCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if pred[i] != 0 || pred[i+5] != 1 {
			t.Fatalf("LGC clique labeling wrong: %v", pred)
		}
	}
}

func TestLGCFailsUnderHeterophily(t *testing.T) {
	const n = 20
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0})
	pred, err := LGC(w, seed, 2, LGCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 1; i < n; i++ {
		if pred[i] == i%2 {
			correct++
		}
	}
	if acc := float64(correct) / float64(n-1); acc > 0.6 {
		t.Errorf("LGC accuracy %v under heterophily, expected poor", acc)
	}
}

func TestLGCErrors(t *testing.T) {
	w := ring(t, 6)
	if _, err := LGC(w, []int{0}, 2, LGCOptions{}); err == nil {
		t.Error("expected length error")
	}
	if _, err := LGC(w, seedVector(6, map[int]int{0: 0}), 2, LGCOptions{Alpha: 2}); err == nil {
		t.Error("expected alpha error")
	}
}

func TestZooBPMatchesLinBPUpdate(t *testing.T) {
	// ZooBP is LinBP restricted to constant row-sum potentials with the
	// fixed scaling ε_h/k. Running uncentered LinBP manually with that
	// scaling must agree exactly.
	const n = 16
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0, 8: 1})
	x, err := labels.Matrix(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := heteroH()
	const epsH = 0.4
	got, err := ZooBP(w, x, h, ZooBPOptions{EpsH: epsH, Iterations: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Manual reference.
	k := 2
	hs := dense.Scale(dense.AddScalar(h, -1.0/float64(k)), epsH/float64(k))
	xt := dense.AddScalar(x, -1.0/float64(k))
	want := xt.Clone()
	for it := 0; it < 7; it++ {
		want = dense.Add(xt, w.MulDense(dense.Mul(want, hs)))
	}
	if !dense.Equal(got, want, 1e-12) {
		t.Error("ZooBP deviates from the restricted LinBP update")
	}
}

// TestZooBPMatchesOldLoop: ZooBP on the shared State rounds gives the
// beliefs its own three-pass loop gave (kept here as the reference), entry
// for entry under ==, unweighted and weighted, k = 2..5. Signed zeros may
// differ: dense.MulInto skips zero entries.
func TestZooBPMatchesOldLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for k := 2; k <= 5; k++ {
		for _, weighted := range []bool{false, true} {
			const n = 40
			w, x := randomProblem(t, rng, n, k, weighted)
			h := circulantH(rng, k)
			got, err := ZooBP(w, x, h, ZooBPOptions{EpsH: 0.7, Iterations: 9})
			if err != nil {
				t.Fatal(err)
			}
			// The loop ZooBP ran before it shared the State's rounds.
			hs := dense.Scale(dense.AddScalar(h, -1.0/float64(k)), 0.7/float64(k))
			xt := dense.AddScalar(x, -1.0/float64(k))
			want := xt.Clone()
			fh, wfh := dense.New(n, k), dense.New(n, k)
			for it := 0; it < 9; it++ {
				dense.MulInto(fh, want, hs)
				w.MulDenseInto(wfh, fh)
				want.CopyFrom(xt)
				dense.AddInPlace(want, wfh)
			}
			for i, v := range want.Data {
				if got.Data[i] != v {
					t.Fatalf("k=%d weighted=%v: entry %d is %v, old loop %v", k, weighted, i, got.Data[i], v)
				}
			}
		}
	}
}

func TestZooBPHeterophilyRing(t *testing.T) {
	const n = 20
	w := ring(t, n)
	seed := seedVector(n, map[int]int{0: 0})
	x, _ := labels.Matrix(seed, 2)
	f, err := ZooBP(w, x, heteroH(), ZooBPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred := dense.ArgmaxRows(f)
	for i := 0; i < n; i++ {
		if pred[i] != i%2 {
			t.Fatalf("ZooBP node %d labeled %d, want %d", i, pred[i], i%2)
		}
	}
}

func TestZooBPErrors(t *testing.T) {
	w := ring(t, 6)
	x := dense.New(6, 2)
	if _, err := ZooBP(w, x, heteroH(), ZooBPOptions{EpsH: 2}); err == nil {
		t.Error("expected eps_h range error")
	}
	nonConstant := dense.FromRows([][]float64{{0.5, 0.4}, {0.4, 0.5}})
	if _, err := ZooBP(w, x, nonConstant, ZooBPOptions{}); err == nil {
		t.Error("expected constant-row-sum error")
	}
}
