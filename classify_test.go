package factorgraph

import (
	"math"
	"testing"

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
