package sparse

import (
	"math"
	"math/rand"
	"runtime"
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

// kernelSweepCSR plants what the register kernels' loops must get right: a
// hub row longer than a panel row block, empty rows (every 97th node and the
// last ten), and an N that is no multiple of the block.
func kernelSweepCSR(t *testing.T, weighted bool) *CSR {
	t.Helper()
	const n = 16*spmmPanelRowBlock + 13
	rng := rand.New(rand.NewSource(5))
	empty := func(u int) bool { return u%97 == 5 || u >= n-10 }
	set := map[[2]int32]bool{}
	var edges [][2]int32
	add := func(u, v int) {
		if u == v || empty(u) || empty(v) {
			return
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int32{int32(u), int32(v)}
		if !set[e] {
			set[e] = true
			edges = append(edges, e)
		}
	}
	for len(edges) < 5*n {
		add(rng.Intn(n), rng.Intn(n))
	}
	const hub = 3*spmmPanelRowBlock + 1
	for v := 0; v < 3*spmmPanelRowBlock; v++ {
		add(hub, 2*v)
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
	if deg := c.IndPtr[hub+1] - c.IndPtr[hub]; deg <= spmmPanelRowBlock {
		t.Fatalf("hub row has %d entries, want more than a row block (%d)", deg, spmmPanelRowBlock)
	}
	if c.IndPtr[6] != c.IndPtr[5] || c.IndPtr[n] != c.IndPtr[n-10] {
		t.Fatal("fixture lost its empty rows")
	}
	return c
}

// TestMulDenseKernelsBitIdentical pins the dispatch contract for every class
// count: whatever kernel MulDenseInto and MulDenseRowsInto route k to — the
// flat scan at k = 1, a constant-stride kernel at 2..5, one strided panel at
// 6..8, two at 9..16 — every entry equals the flat scan's, because each lane
// adds its row's terms in the same order. Weighted and unweighted, on one
// worker and on several; MulDenseRowsInto must also leave rows past N alone.
func TestMulDenseKernelsBitIdentical(t *testing.T) {
	const extra, sentinel = 3, -7.5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, weighted := range []bool{false, true} {
			c := kernelSweepCSR(t, weighted)
			for k := 1; k <= 16; k++ {
				tall := randX(c.N+extra, k, int64(k))
				x := &dense.Matrix{Rows: c.N, Cols: k, Data: tall.Data[:c.N*k]}
				want := dense.New(c.N, k)
				c.MulDenseIntoSimple(want, x)

				got := dense.Constant(c.N, k, sentinel)
				c.MulDenseInto(got, x)
				gotRows := dense.Constant(c.N+extra, k, sentinel)
				c.MulDenseRowsInto(gotRows, tall)
				for i, v := range want.Data {
					if got.Data[i] != v || gotRows.Data[i] != v {
						t.Fatalf("procs=%d weighted=%v k=%d: entry %d is %v (MulDenseInto) / %v (MulDenseRowsInto), flat scan %v",
							procs, weighted, k, i, got.Data[i], gotRows.Data[i], v)
					}
				}
				for i, v := range gotRows.Data[c.N*k:] {
					if v != sentinel {
						t.Fatalf("procs=%d weighted=%v k=%d: MulDenseRowsInto wrote %v past row N (entry %d)", procs, weighted, k, v, i)
					}
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
