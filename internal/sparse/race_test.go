package sparse

import (
	"math/rand/v2"
	"sync"
	"testing"

	"factorgraph/internal/dense"
)

// TestMulDenseConcurrent hammers the shared row-parallel worker pool with
// many simultaneous multiplications over one CSR matrix. Run with -race:
// it guards both the pool's task dispatch and the read-only sharing of the
// matrix across queries.
func TestMulDenseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	const n, k, deg = 500, 4, 8
	var coords []Coord
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			coords = append(coords, Coord{int32(i), int32(rng.IntN(n)), 1})
		}
	}
	w, err := NewFromCoords(n, coords)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.New(n, k)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	want := w.MulDense(x)

	const goros = 16
	var wg sync.WaitGroup
	results := make([]*dense.Matrix, goros)
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := dense.New(n, k)
			for rep := 0; rep < 20; rep++ {
				w.MulDenseInto(out, x)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range results {
		if !dense.Equal(out, want, 0) {
			t.Errorf("goroutine %d: concurrent MulDense result differs", g)
		}
	}
}

// TestSpectralRadiusCachedConcurrent races many first-use callers of the
// memoized spectral radius; all must observe the same value, which must
// match the uncached computation, and later calls must read the memo.
func TestSpectralRadiusCachedConcurrent(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	w, err := NewSymmetricFromEdges(4, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := w.SpectralRadius(rhoMaxSteps)
	const goros = 16
	got := make([]float64, goros)
	var wg sync.WaitGroup
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = w.SpectralRadiusCached()
		}(g)
	}
	wg.Wait()
	for g, v := range got {
		if v != want {
			t.Errorf("goroutine %d: cached ρ=%v, want %v", g, v, want)
		}
	}
	// Later calls must read the stored memo.
	memo := w.rho.Load()
	if v := w.SpectralRadiusCached(); v != got[0] || w.rho.Load() != memo {
		t.Errorf("cache not sticky: %v vs %v", v, got[0])
	}
}
