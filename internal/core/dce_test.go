package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"factorgraph/internal/dense"
)

// mulIntoEvaluator is the DCE energy and gradient as they were computed on
// dense.MulInto, the generic product that skips zero terms, with the
// energy's Frobenius distances and the gradient's accumulations through
// the dense helpers. DCEEvaluator must agree with it entry for entry.
type mulIntoEvaluator struct {
	o               *DCEObjective
	pow             []*dense.Matrix
	adj, prod, full *dense.Matrix
}

func newMulIntoEvaluator(o *DCEObjective) *mulIntoEvaluator {
	r := &mulIntoEvaluator{o: o, adj: dense.New(o.K, o.K), prod: dense.New(o.K, o.K), full: dense.New(o.K, o.K)}
	for range o.Weights {
		r.pow = append(r.pow, dense.New(o.K, o.K))
	}
	return r
}

func (r *mulIntoEvaluator) powers(h []float64) {
	fillFromFree(r.pow[0], h)
	for l := 1; l < len(r.pow); l++ {
		dense.MulInto(r.pow[l], r.pow[l-1], r.pow[0])
	}
}

func (r *mulIntoEvaluator) value(h []float64) float64 {
	r.powers(h)
	v := 0.0
	for l, w := range r.o.Weights {
		d := dense.FrobeniusDist(r.pow[l], r.o.Phats[l])
		v += w * d * d
	}
	return v
}

func (r *mulIntoEvaluator) grad(h []float64) []float64 {
	r.powers(h)
	o := r.o
	for i := range r.full.Data {
		r.full.Data[i], r.adj.Data[i] = 0, 0
	}
	adj, prod := r.adj, r.prod
	for l := len(o.Weights); l >= 1; l-- {
		w2, p, s := 2*o.Weights[l-1], r.pow[l-1].Data, o.sym[l-1].Data
		for i := range adj.Data {
			adj.Data[i] += w2 * (p[i] - s[i])
		}
		if l == 1 {
			dense.AddInPlace(r.full, adj)
			break
		}
		dense.MulInto(prod, r.pow[l-2], adj)
		dense.AddInPlace(r.full, prod)
		dense.MulInto(prod, adj, r.pow[0])
		adj, prod = prod, adj
	}
	return ProjectGradient(r.full)
}

// checkDCEEvaluator compares ev with the MulInto reference at every point
// in turn, energy and gradient with ==: both sum every entry in
// inner-index order, so only the sign of an exact zero may differ.
func checkDCEEvaluator(t *testing.T, obj *DCEObjective, points [][]float64) {
	t.Helper()
	ev, ref := obj.Evaluator(), newMulIntoEvaluator(obj)
	for n, h := range points {
		if got, want := ev.Value(h), ref.value(h); got != want {
			t.Fatalf("k=%d ℓmax=%d point %d: energy %v, MulInto reference %v", obj.K, len(obj.Weights), n, got, want)
		}
		want := ref.grad(h)
		for i, got := range ev.Grad(h) {
			if got != want[i] {
				t.Fatalf("k=%d ℓmax=%d point %d: gradient[%d] = %v, MulInto reference %v", obj.K, len(obj.Weights), n, i, got, want[i])
			}
		}
	}
}

// The evaluator's products run on the propagation solver's row kernel; at
// every width it has an arm for (k = 2..8) and at the default arm (k = 9),
// the energy and gradient are the MulInto reference's exactly, at random
// free points (some entries exactly zero, the terms MulInto skips) against
// random non-symmetric P̂.
func TestDCEEvaluatorMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(53, 54))
	for k := 2; k <= 9; k++ {
		for lmax := 1; lmax <= 5; lmax++ {
			for rep := 0; rep < 3; rep++ {
				obj, _ := randomDCEProblem(r, k, lmax)
				points := make([][]float64, 4)
				for n := range points {
					h := make([]float64, NumFree(k))
					for i := range h {
						if r.IntN(6) > 0 {
							h[i] = 2*r.Float64() - 0.5
						}
					}
					points[n] = h
				}
				points = append(points, points[1]) // a repeat reuses the cached powers
				checkDCEEvaluator(t, obj, points)
			}
		}
	}
}

// FuzzDCEEvaluator: TestDCEEvaluatorMatchesReference over fuzzed k (2..9),
// ℓmax (1..5), sketches and points. The bytes supply P̂ (row-major, ℓ by ℓ)
// and then the free points, eight bytes to a value in [−1, 1) with up to
// 53 significant bits (all-zero bytes give the exact zeros MulInto skips);
// whatever they leave unset is drawn from seed.
func FuzzDCEEvaluator(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint64(1), []byte{})
	f.Add(uint8(3), uint8(4), uint64(2), make([]byte, 64))
	f.Add(uint8(7), uint8(2), uint64(3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, kb, lb uint8, seed uint64, b []byte) {
		k, lmax := 2+int(kb)%8, 1+int(lb)%5
		r := rand.New(rand.NewPCG(seed, 55))
		next := func() float64 {
			if len(b) >= 8 {
				v := float64(int64(binary.LittleEndian.Uint64(b))>>11) * 0x1p-52
				b = b[8:]
				return v
			}
			return 2*r.Float64() - 1
		}
		s := &Summaries{K: k, LMax: lmax, P: make([]*dense.Matrix, lmax)}
		for l := range s.P {
			s.P[l] = dense.New(k, k)
			for i := range s.P[l].Data {
				s.P[l].Data[i] = next()
			}
		}
		obj, err := NewDCEObjective(s, PathWeights(10, lmax))
		if err != nil {
			t.Fatal(err)
		}
		points := make([][]float64, 3)
		for n := range points {
			points[n] = make([]float64, NumFree(k))
			for i := range points[n] {
				points[n][i] = next()
			}
		}
		checkDCEEvaluator(t, obj, points)
	})
}

// goldenBits are DCEr's answers on the two golden sketches, bit for bit,
// and the work to reach them: every restart, iteration and evaluation.
var goldenBits = []struct {
	name        string
	k           int
	powerLaw    bool
	seed        uint64
	h           []uint64 // row-major Float64bits of H
	restarts    int
	iterations  int // all restarts of one DCEr
	evaluations int
}{
	{"k3-uniform", 3, false, 31, []uint64{
		0x3fb6e94052fec407, 0x3fe9cc84291d35c2, 0x3fbab29e64178de8,
		0x3fe9cc84291d35c2, 0x3fba395f7aa4903d, 0x3fb7627f3c71c1b0,
		0x3fbab29e64178de8, 0x3fb7627f3c71c1b0, 0x3fe9bd5c4beed60c,
	}, 9, 247, 455},
	{"k5-powerlaw", 5, true, 32, []uint64{
		0x3fb5fa258ba8c0e4, 0x3fe5180ffa968d3f, 0x3fad306c0f2b647c, 0x3fb9f82e1a021dff, 0x3fb8b4f67e0b04e0,
		0x3fe5180ffa968d3f, 0x3fb61e7cf00e5e4a, 0x3fb55454c40adad4, 0x3fbb95f536838e8c, 0x3fb036b940aece60,
		0x3fad306c0f2b647c, 0x3fb55454c40adad4, 0x3fb94e58d86d27c7, 0x3fe4f57c647e8c80, 0x3fbb193937fde728,
		0x3fb9f82e1a021dff, 0x3fbb95f536838e8c, 0x3fe4f57c647e8c80, 0x3faafbeacdcbd563, 0x3fb5480424a004c0,
		0x3fb8b4f67e0b04e0, 0x3fb036b940aece60, 0x3fbb193937fde728, 0x3fb5480424a004c0, 0x3fe4d6625c95081c,
	}, 10, 1162, 1649},
}

// DCEr on the golden sketches returns the pinned H bit for bit on one
// processor and on several, after exactly the pinned restarts, iterations
// and evaluations: a change to the optimisation that moves any rounding
// shows here, however small.
func TestDCErGoldenBits(t *testing.T) {
	for _, c := range goldenBits {
		t.Run(c.name, func(t *testing.T) {
			s := goldenSketch(t, c.k, c.powerLaw, c.seed)
			opts := DefaultDCErOptions()
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				est, err := EstimateDCE(s, opts)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range est.Data {
					if math.Float64bits(v) != c.h[i] {
						t.Fatalf("GOMAXPROCS %d: H entry %d = %#016x (%v), pinned %#016x", procs, i, math.Float64bits(v), v, c.h[i])
					}
				}
			}
			obj, err := NewDCEObjective(s, PathWeights(opts.Lambda, s.LMax))
			if err != nil {
				t.Fatal(err)
			}
			results, err := minimizeRestarts(obj, restartPoints(c.k, opts.Restarts, opts.Seed), opts)
			if err != nil {
				t.Fatal(err)
			}
			iterations, evals := 0, 0
			for _, r := range results {
				iterations += r.Iterations
				evals += r.Evaluations
			}
			if len(results) != c.restarts || iterations != c.iterations || evals != c.evaluations {
				t.Errorf("%d restarts, %d iterations, %d evaluations; pinned %d, %d, %d",
					len(results), iterations, evals, c.restarts, c.iterations, c.evaluations)
			}
		})
	}
}

// One DCEr allocates a bounded number of times whatever its iteration
// count: the objective, one evaluator, the restart points and each
// restart's solver storage, each a handful of allocations.
func TestEstimateDCEAllocs(t *testing.T) {
	for _, c := range []struct {
		k         int
		powerLaw  bool
		seed      uint64
		maxAllocs float64
	}{{3, false, 31, 50}, {5, true, 32, 60}} {
		s := goldenSketch(t, c.k, c.powerLaw, c.seed)
		opts := DefaultDCErOptions()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := EstimateDCE(s, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.maxAllocs {
			t.Errorf("k=%d: %v allocations per DCEr, want ≤ %v", c.k, allocs, c.maxAllocs)
		}
	}
}

// BenchmarkEstimateDCE times DCEr's optimisation alone on the fixed golden
// sketches: go test -run '^$' -bench EstimateDCE -cpu 1 ./internal/core.
func BenchmarkEstimateDCE(b *testing.B) {
	for _, c := range goldenBits {
		s := goldenSketch(b, c.k, c.powerLaw, c.seed)
		opts := DefaultDCErOptions()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := EstimateDCE(s, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
