package factorgraph

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/telemetry"
)

// TestClassifyWarmStartParity: Classify propagates from the sketch's own
// walks, entering LinBP at round 3, and must still return exactly what the
// two-step pipeline returns. On graphs shaped like the benchmark's (U20k,
// P20k at k = 5, P10k at 1 % seeds; a tenth of the size under -short),
// over 20 seed samples each: H is bit-identical to EstimateDCEr's, the labels
// equal Propagate's under that H, the beliefs are within 1e-12 of
// PropagateBeliefs', and one Classify runs exactly 7 dense LinBP rounds.
func TestClassifyWarmStartParity(t *testing.T) {
	scale := 1
	if testing.Short() {
		scale = 10
	}
	rounds := telemetry.Default().Counter("fg_exec_dense_rounds_total", "")
	for _, spec := range []struct {
		name     string
		n, m, k  int
		powerLaw bool
		f        float64
	}{
		{"U20k", 20000, 100000, 3, false, 0.05},
		{"P20k", 20000, 100000, 5, true, 0.05},
		{"P10k", 10000, 50000, 3, true, 0.01},
	} {
		n, m := spec.n/scale, spec.m/scale
		g, truth, err := Generate(GenerateConfig{N: n, M: m, K: spec.k, H: SkewedH(spec.k, 3), PowerLaw: spec.powerLaw, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for sample := uint64(1); sample <= 20; sample++ {
			seeds, err := SampleSeeds(truth, spec.k, spec.f, sample)
			if err != nil {
				t.Fatal(err)
			}
			before := rounds.Value()
			pred, est, err := Classify(g, seeds, spec.k)
			if err != nil {
				t.Fatal(err)
			}
			if got := rounds.Value() - before; got != 7 {
				t.Errorf("%s/%d: Classify ran %d dense rounds, want 7", spec.name, sample, got)
			}
			ref, err := EstimateDCEr(g, seeds, spec.k)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range ref.H.Data {
				if est.H.Data[i] != v {
					t.Fatalf("%s/%d: H[%d] = %v, EstimateDCEr %v", spec.name, sample, i, est.H.Data[i], v)
				}
			}
			want, err := Propagate(g, seeds, spec.k, ref.H)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if pred[i] != want[i] {
					t.Fatalf("%s/%d: node %d labeled %d, Propagate %d", spec.name, sample, i, pred[i], want[i])
				}
			}
			f, _, err := classifyBeliefs(g, seeds, spec.k)
			if err != nil {
				t.Fatal(err)
			}
			fRef, err := PropagateBeliefs(g, seeds, spec.k, ref.H)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range fRef.Data {
				if d := math.Abs(f.Data[i] - v); d > 1e-12 {
					t.Fatalf("%s/%d: belief %d differs by %g", spec.name, sample, i, d)
				}
			}
		}
	}
}

// classifyBitsWant pins classifyBeliefs' F and H on the graphs of
// TestClassifyBitsPinned: FNV-1a over the Float64bits of every entry, F
// then H, over the five samples in order.
var classifyBitsWant = map[int][2]uint64{
	3: {0x29df4d41d91fba51, 0xac6c87b3373d8e11},
	4: {0x0a0cbbfc7faec99e, 0x25e2e2dd1b82cb60},
	5: {0xdb27e86526a6f2b0, 0x366127d40a6bfe92},
}

// TestClassifyBitsPinned: classifyBeliefs' beliefs and estimate hash to
// fixed values on three small planted graphs with a fifth of the nodes
// labeled, so that the walks LinBP starts from are large enough for a
// change in their rounding to reach F (k = 3 and 5 run the
// fixed-width kernels, k = 4 the generic ones), five seed samples each, at
// GOMAXPROCS 1 and 4, and whether or not a collection drained Classify's
// buffer pool before the call; and Classify's labels are F's row argmax.
// Any change to an addition's order changes
// them.
func TestClassifyBitsPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for k, want := range classifyBitsWant {
			g, truth, err := Generate(GenerateConfig{N: 3000, M: 15000, K: k, H: SkewedH(k, 3), PowerLaw: k == 5, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			hf, hh := fnv.New64a(), fnv.New64a()
			for sample := uint64(1); sample <= 5; sample++ {
				seeds, err := SampleSeeds(truth, k, 0.2, sample)
				if err != nil {
					t.Fatal(err)
				}
				pred, _, err := Classify(g, seeds, k) // leaves its buffers pooled
				if err != nil {
					t.Fatal(err)
				}
				if sample%2 == 0 {
					runtime.GC()
					runtime.GC()
				}
				f, est, err := classifyBeliefs(g, seeds, k)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range dense.ArgmaxRows(f) {
					if pred[i] != c {
						t.Fatalf("k = %d sample %d: Classify labels node %d %d, F's argmax is %d", k, sample, i, pred[i], c)
					}
				}
				hashBits(hf, f.Data)
				hashBits(hh, est.H.Data)
			}
			if got := [2]uint64{hf.Sum64(), hh.Sum64()}; got != want {
				t.Errorf("GOMAXPROCS %d, k = %d: F, H hash to %#x, %#x, want %#x, %#x", procs, k, got[0], got[1], want[0], want[1])
			}
		}
	}
}

// hashBits writes the bits of every value to h.
func hashBits(h hash.Hash64, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// TestClassifyAllocBytes: a warm Classify takes its n-sized buffers from
// its pool, so on a 20 000-node graph it allocates at most 256 KB per call
// at k = 3 and at k = 5 (the labels it returns are 156 KB of that), and 20
// warm calls run no garbage collection. Whether a collection runs depends
// on the heap goal as well as on the allocations, so the calls run with
// the goal set 10 MB above the live heap: 20 calls within the budget stay
// under the earliest trigger the pacer sets (70 % of the way), while 20
// calls that each allocate their six n×k buffers afresh (about 3 MB at
// k = 3) collect at least twice. It runs at GOMAXPROCS 1, as
// cmd/bench does: with more Ps, a Get after a collection can miss buffers
// that another P put. Skipped under -race, whose sync.Pool drops a share
// of what it is given.
func TestClassifyAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects under -race")
	}
	const runs, budget, headroom = 20, 256 << 10, 10 << 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	for _, spec := range []struct {
		k        int
		powerLaw bool
	}{{3, false}, {5, true}} {
		g, truth, err := Generate(GenerateConfig{N: 20000, M: 100000, K: spec.k, H: SkewedH(spec.k, 8), PowerLaw: spec.powerLaw, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var samples [][]int
		for s := uint64(1); s <= 4; s++ {
			seeds, err := SampleSeeds(truth, spec.k, 0.05, s)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, seeds)
		}
		// The first call fills the pool, and the collection after it
		// marks the pooled buffers live, as they are in a run of calls.
		if _, _, err := Classify(g, samples[0], spec.k); err != nil {
			t.Fatal(err)
		}
		debug.SetGCPercent(100)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		debug.SetGCPercent(int(headroom * 100 / before.HeapAlloc))
		for i := 0; i < runs; i++ {
			if _, _, err := Classify(g, samples[i%len(samples)], spec.k); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("k = %d: %d B per warm Classify, %d collections in %d calls", spec.k, perOp, after.NumGC-before.NumGC, runs)
		if perOp > budget {
			t.Errorf("k = %d: a warm Classify allocates %d B, budget %d", spec.k, perOp, budget)
		}
		if gcs := after.NumGC - before.NumGC; gcs != 0 {
			t.Errorf("k = %d: %d garbage collections in %d warm calls, want 0", spec.k, gcs, runs)
		}
	}
}
