package sparse

import (
	"math"
	"math/rand"
	"testing"

	"factorgraph/internal/dense"
)

// randSpmmCSR plants a random symmetric graph; weighted draws uniform edge
// weights so the c.Data != nil kernel paths are exercised too.
func randSpmmCSR(t *testing.T, n, m int, weighted bool, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := make(map[[2]int32]bool, m)
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if set[[2]int32{u, v}] {
			continue
		}
		set[[2]int32{u, v}] = true
		edges = append(edges, [2]int32{u, v})
	}
	var weights []float64
	if weighted {
		weights = make([]float64, len(edges))
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
		}
	}
	c, err := NewSymmetricFromEdges(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randX(n, k int, seed int64) *dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := dense.New(n, k)
	for i := range x.Data {
		x.Data[i] = rng.Float64() - 0.5
	}
	return x
}

// TestMulDenseKernelsBitIdentical pins the dispatch contract: every kernel
// MulDenseInto can route to — register-blocked (k ≤ 4), column-tiled, flat
// scan — produces bit-identical output, because they all accumulate each
// row's terms in the same flat-scan order. Weighted and unweighted.
func TestMulDenseKernelsBitIdentical(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		c := randSpmmCSR(t, 3000, 15000, weighted, 5)
		for k := 1; k <= 6; k++ {
			x := randX(c.N, k, int64(k))
			want := dense.New(c.N, k)
			c.MulDenseIntoSimple(want, x)

			got := dense.New(c.N, k)
			c.MulDenseInto(got, x) // k ≤ 4 → register-blocked
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("weighted=%v k=%d: MulDenseInto differs from flat scan at %d: %v vs %v",
						weighted, k, i, got.Data[i], want.Data[i])
				}
			}

			tiled := dense.New(c.N, k)
			c.mulDenseTiled(tiled, x) // forced, below the dispatch thresholds
			for i := range want.Data {
				if want.Data[i] != tiled.Data[i] {
					t.Fatalf("weighted=%v k=%d: tiled differs from flat scan at %d: %v vs %v",
						weighted, k, i, tiled.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestMulDenseInto32Accuracy bounds the float32 kernel against the float64
// kernel on a random 15k-edge graph: per-entry drift is O(deg·ulp32), far
// inside 1e-4 here. Covers both the register-blocked (k ≤ 4) and generic
// f32 scans, weighted and unweighted.
func TestMulDenseInto32Accuracy(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		c := randSpmmCSR(t, 3000, 15000, weighted, 7)
		for k := 2; k <= 6; k++ {
			x := randX(c.N, k, int64(10+k))
			want := dense.New(c.N, k)
			c.MulDenseIntoSimple(want, x)

			x32, y32 := dense.New32(c.N, k), dense.New32(c.N, k)
			for i, v := range x.Data {
				x32.Data[i] = float32(v)
			}
			c.MulDenseInto32(y32, x32)
			for i := range want.Data {
				if d := math.Abs(want.Data[i] - float64(y32.Data[i])); d > 1e-4 {
					t.Fatalf("weighted=%v k=%d: f32 kernel off by %g at %d", weighted, k, d, i)
				}
			}
		}
	}
}

// TestMulVecParallelBitIdentical crosses the mulVecParallelNNZ cutoff and
// checks the row-parallel scan against a test-local sequential reference —
// rows are independent sums, so parallelism must be invisible bit-for-bit.
func TestMulVecParallelBitIdentical(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		c := randSpmmCSR(t, 6000, 12000, weighted, 9) // 24k nnz ≥ 1<<14
		if c.NNZ() < mulVecParallelNNZ {
			t.Fatalf("fixture nnz %d below the parallel cutoff %d", c.NNZ(), mulVecParallelNNZ)
		}
		rng := rand.New(rand.NewSource(3))
		v := make([]float64, c.N)
		for i := range v {
			v[i] = rng.Float64() - 0.5
		}
		want := make([]float64, c.N)
		for i := 0; i < c.N; i++ {
			var s float64
			for p := c.IndPtr[i]; p < c.IndPtr[i+1]; p++ {
				w := 1.0
				if c.Data != nil {
					w = c.Data[p]
				}
				s += w * v[c.Indices[p]]
			}
			want[i] = s
		}
		got := c.MulVec(v)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("weighted=%v: MulVec differs at row %d: %v vs %v", weighted, i, got[i], want[i])
			}
		}
	}
}
