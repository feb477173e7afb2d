package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"factorgraph/internal/delta"
	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// timeMedian runs fn reps times and returns the median wall time.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// kernelReps is how often each kernel call is repeated for its median.
const kernelReps = 15

// spmmBytes is the memory traffic of one out = W·X, computed from the
// shapes (not measured): the CSR arrays read once, one k-wide row of X
// gathered per stored entry, and the output written once. A cache that
// serves repeated X rows moves fewer bytes, so the GB/s derived from this
// is the kernel's effective, not physical, bandwidth.
func spmmBytes(c *sparse.CSR, k int) float64 {
	nnz, n := float64(c.NNZ()), float64(c.N)
	b := nnz*4 + (n+1)*8 + nnz*float64(k*8) + n*float64(k*8)
	if c.Data != nil {
		b += nnz * 8
	}
	return b
}

func randomDense(n, k int, rng *rand.Rand) *dense.Matrix {
	x := dense.New(n, k)
	for i := range x.Data {
		x.Data[i] = rng.Float64() - 0.5
	}
	return x
}

// triadGBps is a STREAM-style triad a[i] = b[i] + s·c[i] over arrays far
// larger than the private caches, split across GOMAXPROCS goroutines; it
// counts three 8-byte streams per element, as STREAM does, and returns the
// best of a few passes in GB/s. SpMM bandwidth is read against it.
func triadGBps() float64 {
	const elems = 4 << 20
	a, b, c := make([]float64, elems), make([]float64, elems), make([]float64, elems)
	for i := range b {
		b[i], c[i] = float64(i), float64(elems-i)
	}
	workers := runtime.GOMAXPROCS(0)
	best := time.Duration(1 << 62)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a[i] = b[i] + 3*c[i]
				}
			}(elems*w/workers, elems*(w+1)/workers)
		}
		wg.Wait()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	runtime.KeepAlive(a)
	return 3 * 8 * elems / best.Seconds() / 1e9
}

// setEdgeMicros times delta.Graph.SetEdge on a fresh overlay over c: the
// per-edge cost of the copy-on-write row patch, without engine or residual.
func setEdgeMicros(c *sparse.CSR, rng *rand.Rand) float64 {
	const edges = 10000
	g := delta.New(c)
	us := make([]float64, 0, edges)
	for i := 0; i < edges; i++ {
		u, v := rng.IntN(c.N), rng.IntN(c.N)
		if u == v {
			continue
		}
		start := time.Now()
		g.SetEdge(u, v, 1)
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return median(us)
}
