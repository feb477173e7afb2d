package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"factorgraph/internal/dense"
)

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
// adds its row's terms in the same order. The per-row kernel MulRowInto,
// fed each row's stored entries, must write the same rows. Weighted and
// unweighted, on one worker and on several; MulDenseRowsInto must also
// leave rows past N alone.
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
				perRow := dense.Constant(c.N, k, sentinel)
				for i := 0; i < c.N; i++ {
					cols, wts := c.Row(i)
					MulRowInto(perRow.Row(i), x, cols, wts)
				}
				for i, v := range want.Data {
					if got.Data[i] != v || gotRows.Data[i] != v || perRow.Data[i] != v {
						t.Fatalf("procs=%d weighted=%v k=%d: entry %d is %v (MulDenseInto) / %v (MulDenseRowsInto) / %v (MulRowInto), flat scan %v",
							procs, weighted, k, i, got.Data[i], gotRows.Data[i], perRow.Data[i], v)
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
		c := randSpmmCSR(t, 3000, 15000, false, weighted, func(int) bool { return false }, 7)
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

// flatMulVec is the sequential one-row-at-a-time scan MulVec must match
// bit for bit.
func flatMulVec(c *CSR, v []float64) []float64 {
	out := make([]float64, c.N)
	for i := 0; i < c.N; i++ {
		var s float64
		for p := c.IndPtr[i]; p < c.IndPtr[i+1]; p++ {
			w := 1.0
			if c.Data != nil {
				w = c.Data[p]
			}
			s += w * v[c.Indices[p]]
		}
		out[i] = s
	}
	return out
}

// randSpmmCSR plants a random symmetric graph of n nodes and m distinct
// edges. powerLaw draws endpoints as n·x³ for uniform x, so low ids are
// hubs; empty(u) rows get no edges; weighted draws uniform edge weights so
// the c.Data != nil kernel paths are exercised too.
func randSpmmCSR(t *testing.T, n, m int, powerLaw, weighted bool, empty func(u int) bool, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	node := func() int {
		if powerLaw {
			x := rng.Float64()
			return int(float64(n) * x * x * x)
		}
		return rng.Intn(n)
	}
	set := make(map[[2]int32]bool, m)
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		u, v := node(), node()
		if u == v || empty(u) || empty(v) {
			continue
		}
		e := [2]int32{int32(min(u, v)), int32(max(u, v))}
		if !set[e] {
			set[e] = true
			edges = append(edges, e)
		}
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

// TestMulVecParallelBitIdentical checks MulVec — row-parallel past
// mulVecParallelNNZ — against the flat sequential scan, entry for entry:
// weighted and unweighted, uniform and with hubs, with empty rows (every
// 13th and the last three), nnz on both sides of the cutoff, on one worker
// and on several. Rows are independent sums, so parallelism must be
// invisible.
func TestMulVecParallelBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, weighted := range []bool{false, true} {
			for i, size := range [][2]int{{1201, 3000}, {1202, 3000}, {6001, 12000}, {6002, 12000}} {
				n, m := size[0], size[1]
				empty := func(u int) bool { return u%13 == 3 || u >= n-3 }
				c := randSpmmCSR(t, n, m, i%2 == 1, weighted, empty, int64(9+i))
				if parallel := c.NNZ() >= mulVecParallelNNZ; parallel != (m == 12000) {
					t.Fatalf("fixture nnz %d on the wrong side of the parallel cutoff %d", c.NNZ(), mulVecParallelNNZ)
				}
				rng := rand.New(rand.NewSource(3))
				v := make([]float64, c.N)
				for i := range v {
					v[i] = rng.Float64() - 0.5
				}
				want, got := flatMulVec(c, v), c.MulVec(v)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("procs=%d weighted=%v n=%d: MulVec differs at row %d: %v vs %v", procs, weighted, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
