package factorgraph

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"factorgraph/internal/dense"
	"factorgraph/internal/propagation"
	"factorgraph/internal/sparse"
)

// kernelArtifact mirrors cmd/benchdiff's kernelReport: the BENCH_kernel.json
// schema trended in CI and gated by `benchdiff -old-kernel -new-kernel`.
type kernelArtifact struct {
	Nodes              int     `json:"nodes"`
	Edges              int     `json:"edges"`
	SpmmSimpleGBps     float64 `json:"spmm_simple_gbps"`
	SpmmBlockedGBps    float64 `json:"spmm_blocked_gbps"`
	SpmmF32GBps        float64 `json:"spmm_f32_gbps"`
	SpmmSpeedup        float64 `json:"spmm_speedup"`
	PropagationSeconds float64 `json:"propagation_seconds"`
}

// spmmBytes estimates the memory traffic of one W×X pass: per nonzero one
// column index plus one gathered x-row, per row one written out-row, plus
// the row-pointer walk; elemBytes is 8 for the float64 kernels, 4 for f32
// (CSR values, when present, stay float64 in both).
func spmmBytes(c *sparse.CSR, k, elemBytes int) float64 {
	nnz := len(c.Indices)
	b := nnz*4 + nnz*k*elemBytes // indices + gathered x-rows
	if c.Data != nil {
		b += nnz * 8
	}
	b += c.N*k*elemBytes + (c.N+1)*4 // out-rows + IndPtr
	return float64(b)
}

// timeOp runs op until ~80ms of samples accumulate (at least 3 reps) and
// returns the best-rep wall time — the standard least-noise estimator for
// bandwidth microbenchmarks.
func timeOp(op func()) float64 {
	op() // warm: page in buffers, spin up the worker pool
	best := 0.0
	var total time.Duration
	for rep := 0; rep < 3 || (total < 80*time.Millisecond && rep < 50); rep++ {
		start := time.Now()
		op()
		d := time.Since(start)
		total += d
		if s := d.Seconds(); best == 0 || s < best {
			best = s
		}
	}
	return best
}

// TestKernelThroughputArtifact measures the SpMM kernels the way CI trends
// them: the seed-era flat-scan kernel vs the blocked kernel on the same
// upload-order matrix, the float32 kernel, and an end-to-end LinBP
// propagation — writing BENCH_kernel.json when BENCH_KERNEL_OUT is set.
// Without the env var it runs a small smoke (correctness of the harness,
// not throughput): results are logged, never gated, because laptop and CI
// thermals are not comparable — the regression gate is benchdiff comparing
// two artifacts from the SAME runner.
func TestKernelThroughputArtifact(t *testing.T) {
	out := os.Getenv("BENCH_KERNEL_OUT")
	n, m := 30_000, 150_000
	if out != "" {
		n, m = 200_000, 1_000_000 // the ISSUE's acceptance graph
	}
	const k = 4
	g, _, err := Generate(GenerateConfig{N: n, M: m, K: k, H: SkewedH(k, 3), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Adj

	x := dense.New(n, k)
	for i := 0; i < n; i++ {
		x.Data[i*k+i%k] = 1.0 / float64(k)
	}
	y := dense.New(n, k)
	x32, y32 := dense.New32(n, k), dense.New32(n, k)
	for i, v := range x.Data {
		x32.Data[i] = float32(v)
	}

	simpleSec := timeOp(func() { c.MulDenseIntoSimple(y, x) })
	blockedSec := timeOp(func() { c.MulDenseInto(y, x) })
	f32Sec := timeOp(func() { c.MulDenseInto32(y32, x32) })

	// Blocked dispatch must be bit-identical to the flat scan — the
	// harness-level restatement of the sparse package's property test,
	// cheap enough to assert on every run.
	y2 := dense.New(n, k)
	c.MulDenseInto(y, x)
	c.MulDenseIntoSimple(y2, x)
	for i := range y.Data {
		if y.Data[i] != y2.Data[i] {
			t.Fatalf("blocked and simple kernels differ at %d: %v vs %v", i, y.Data[i], y2.Data[i])
		}
	}

	propSec := timeOp(func() {
		if _, err := propagation.LinBP(c, x, SkewedH(k, 3), propagation.LinBPOptions{Iterations: 10}); err != nil {
			t.Fatal(err)
		}
	})

	rep := kernelArtifact{
		Nodes:              n,
		Edges:              len(c.Indices) / 2,
		SpmmSimpleGBps:     spmmBytes(c, k, 8) / simpleSec / 1e9,
		SpmmBlockedGBps:    spmmBytes(c, k, 8) / blockedSec / 1e9,
		SpmmF32GBps:        spmmBytes(c, k, 4) / f32Sec / 1e9,
		PropagationSeconds: propSec,
	}
	rep.SpmmSpeedup = rep.SpmmBlockedGBps / rep.SpmmSimpleGBps
	t.Logf("n=%d m=%d: simple %.2f GB/s, blocked %.2f GB/s (%.2fx), f32 %.2f GB/s, propagation %.3fs",
		rep.Nodes, rep.Edges, rep.SpmmSimpleGBps, rep.SpmmBlockedGBps, rep.SpmmSpeedup, rep.SpmmF32GBps, rep.PropagationSeconds)
	if rep.SpmmSpeedup < 1.3 {
		// Soft on shared runners; the hard gate is benchdiff trending
		// artifact pairs from identical hardware.
		t.Logf("note: blocked speedup %.2fx below the 1.3x acceptance target on this machine", rep.SpmmSpeedup)
	}

	if out == "" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
