package residual

import (
	"math"
	"math/rand"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// randWeightedGraph is randGraph with weights drawn from [0.25, 4).
func randWeightedGraph(t *testing.T, n, deg int, seed int64) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int32
	var weights []float64
	for i := 0; i < n*deg/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		weights = append(weights, 0.25*math.Pow(16, rng.Float64()))
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// randStochasticH is a random row-stochastic k×k matrix: not symmetric, so
// σ_max(H̃) exceeds ρ(H̃) and the certificate's s̄ exceeds s.
func randStochasticH(k int, rng *rand.Rand) *dense.Matrix {
	h := dense.New(k, k)
	for i := 0; i < k; i++ {
		row, sum := h.Row(i), 0.0
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return h
}

// argmax is the first index of row's largest entry.
func argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// TestCertificateBoundsTheError is the certificate's property test. On
// random graphs (k = 2..5, s ∈ {0.5, 0.9}, weighted and unweighted, with
// symmetric homophilous and non-symmetric random H) a wide seed change
// floods a session armed by Certify. At every bound the drain evaluates,
// B ≥ ‖F* − F‖_F ≥ max|F* − F| against a reference solved to a tight
// tolerance; every label of a certified stop equals the reference label.
// The Frobenius side is the inequality the proof chains through, and the
// tight one: after a few rounds R lines up with A's top eigenvector, where
// ‖E‖_F = ‖R‖_F/(1 − s), so a bound without √k or with a smaller s̄ fails.
func TestCertificateBoundsTheError(t *testing.T) {
	evaluated, stopped := 0, 0
	for c := 0; c < 16; c++ {
		k, sConv, weighted := 2+c%4, []float64{0.5, 0.9}[c/4%2], c/8 == 1
		seed := int64(100 + c)
		rng := rand.New(rand.NewSource(seed))
		n := 240
		w := randGraph(t, n, 6, seed)
		if weighted {
			w = randWeightedGraph(t, n, 6, seed)
		}
		h := testH(k, 0.3+0.4*rng.Float64())
		if c%3 == 2 {
			h = randStochasticH(k, rng)
		}
		_, rhoUpper := w.SpectralBracketCached()
		x := randX(n, k, 0.1, rng)
		s, err := NewState(w, h, Options{S: sConv})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Init(x); err != nil {
			t.Fatal(err)
		}
		s.promoteAt = 8 // saturate at once: the drain's rounds are what is tested
		x2 := x.Clone()
		flips := rand.New(rand.NewSource(seed))
		for node := 0; node < n; node++ {
			if flips.Float64() < 0.4 {
				row := x2.Row(node)
				clear(row)
				row[flips.Intn(k)] = 1
			}
		}
		ref, err := NewState(w, h, Options{S: sConv, Tol: 1e-15})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Init(x2); err != nil {
			t.Fatal(err)
		}
		want := ref.Beliefs()

		queries := [][]int{rng.Perm(n)[:8], rng.Perm(n)}
		for qi, nodes := range queries {
			p := s.BeginPatch()
			for node := 0; node < n; node++ {
				delta := make([]float64, k)
				for j := range delta {
					delta[j] = x2.At(node, j) - x.At(node, j)
				}
				p.AddDelta(node, delta)
			}
			p.Certify(nodes, rhoUpper)
			p.boundHook = func(b float64) {
				evaluated++
				var frob, worst float64
				for i, v := range p.df.Data {
					d := math.Abs(v - want.Data[i])
					frob += d * d
					worst = max(worst, d)
				}
				if frob = math.Sqrt(frob); !(b >= frob) || !(b >= worst) {
					t.Errorf("case %d query %d: bound %g below the error: ‖E‖_F = %g, max|E| = %g", c, qi, b, frob, worst)
				}
			}
			st := p.Flush()
			if st.Certified {
				stopped++
				if st.MaxResidual <= s.opts.Tol {
					t.Errorf("case %d query %d: certified stop with nothing above the tolerance", c, qi)
				}
				for _, node := range nodes {
					if got, ref := argmax(p.Row(node)), argmax(want.Row(node)); got != ref {
						t.Errorf("case %d query %d: node %d certified as %d, reference label %d", c, qi, node, got, ref)
					}
				}
			}
			p.Abort()
		}
	}
	// Vacuity guards: the bound was evaluated on many rounds and some
	// sessions stopped on it.
	if evaluated < 100 || stopped < 4 {
		t.Fatalf("certificate barely exercised: %d bounds evaluated, %d certified stops", evaluated, stopped)
	}
	t.Logf("%d bounds evaluated, %d certified stops", evaluated, stopped)
}

// TestApplyPanicsOnCertifiedSession: a session the certificate stopped
// holds residual above the tolerance; applying it would install beliefs
// the base's invariant does not cover, so Apply panics and Abort is the
// only ending.
func TestApplyPanicsOnCertifiedSession(t *testing.T) {
	n, k := 400, 3
	w := randGraph(t, n, 6, 7)
	rng := rand.New(rand.NewSource(7))
	x := randX(n, k, 0.1, rng)
	s, err := NewState(w, testH(k, 0.6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	s.promoteAt = 8
	_, rhoUpper := w.SpectralBracketCached()
	p := s.BeginPatch()
	widePatch(p, x.Clone(), n, k, 0.4, rng)
	p.Certify([]int{}, rhoUpper) // no queried node: the first whole-matrix round certifies
	if st := p.Flush(); !st.Certified || st.Sweeps != 1 {
		t.Fatalf("empty query set did not stop at the first whole-matrix round: %+v", st)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Apply on a certified session did not panic")
			}
		}()
		p.Apply()
	}()
	p.Abort()
}

// TestCertifyIgnoredWithoutContraction: with s̄ ≥ 1 there is no
// certificate and the flush runs to the tolerance.
func TestCertifyIgnoredWithoutContraction(t *testing.T) {
	n, k := 400, 3
	w := randGraph(t, n, 6, 9)
	rng := rand.New(rand.NewSource(9))
	x := randX(n, k, 0.1, rng)
	s, err := NewState(w, testH(k, 0.6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(x); err != nil {
		t.Fatal(err)
	}
	s.promoteAt = 8
	p := s.BeginPatch()
	widePatch(p, x.Clone(), n, k, 0.4, rng)
	p.Certify([]int{}, 2/s.sigmaH)
	if st := p.Flush(); st.Certified || st.MaxResidual > s.opts.Tol {
		t.Fatalf("uncontracted certificate stopped the flush: %+v", st)
	}
	p.Abort()
}

// jacobiTopEig returns the largest eigenvalue of the symmetric k×k matrix
// a (row-major) by cyclic Jacobi rotations; a is overwritten.
func jacobiTopEig(a []float64, k int) float64 {
	for sweep := 0; sweep < 100; sweep++ {
		var off, diag float64
		for i := 0; i < k; i++ {
			diag += a[i*k+i] * a[i*k+i]
			for j := i + 1; j < k; j++ {
				off += a[i*k+j] * a[i*k+j]
			}
		}
		if off <= 1e-34*diag {
			break
		}
		for p := 0; p < k; p++ {
			for q := p + 1; q < k; q++ {
				apq := a[p*k+q]
				if apq == 0 {
					continue
				}
				theta := (a[q*k+q] - a[p*k+p]) / (2 * apq)
				tn := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					tn = -tn
				}
				cs := 1 / math.Sqrt(tn*tn+1)
				sn := tn * cs
				for r := 0; r < k; r++ {
					arp, arq := a[r*k+p], a[r*k+q]
					a[r*k+p], a[r*k+q] = cs*arp-sn*arq, sn*arp+cs*arq
				}
				for r := 0; r < k; r++ {
					apr, aqr := a[p*k+r], a[q*k+r]
					a[p*k+r], a[q*k+r] = cs*apr-sn*aqr, sn*apr+cs*aqr
				}
			}
		}
	}
	top := math.Inf(-1)
	for i := 0; i < k; i++ {
		top = max(top, a[i*k+i])
	}
	return top
}

// FuzzSigmaBound turns bytes into a k×k matrix — k, a scale exponent, then
// signed entries — and checks σ̄ against σ_max from a dense eigensolve of
// HᵀH: σ_max ≤ σ̄ ≤ σ_max·(1 + ln(k)·2^-(j+2) + 2k³·sigmaRound), the slack
// sigmaBound documents, widened only by the eigensolve's own rounding.
func FuzzSigmaBound(f *testing.F) {
	f.Add([]byte{3, 8, 200, 10, 10, 10, 200, 10, 10, 10, 200})
	f.Add([]byte{2, 0, 1, 2, 3, 4})
	f.Add([]byte{5, 16, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{4, 30, 128, 128, 128, 128})
	f.Add([]byte{1, 3, 77})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		k, body := 1+int(in[0])%8, in[2:]
		scale := math.Ldexp(1, int(in[1]%64)-32)
		h := dense.New(k, k)
		for i := range h.Data {
			if i < len(body) {
				h.Data[i] = (float64(body[i]) - 128) / 64 * scale
			}
		}
		ata := make([]float64, k*k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				for r := 0; r < k; r++ {
					ata[i*k+j] += h.At(r, i) * h.At(r, j)
				}
			}
		}
		sigma := math.Sqrt(max(0, jacobiTopEig(ata, k)))
		got := sigmaBound(h)
		kf := float64(k)
		slack := math.Log(kf)*math.Ldexp(1, -(sigmaSquarings+2)) + 2*kf*kf*kf*sigmaRound
		const eig = 1e-14 // the eigensolve's relative rounding
		if got < sigma*(1-eig) {
			t.Fatalf("k=%d: σ̄ = %v below σ_max = %v", k, got, sigma)
		}
		if got > sigma*(1+slack+eig) {
			t.Fatalf("k=%d: σ̄ = %v exceeds σ_max = %v by %g relative, slack %g", k, got, sigma, got/sigma-1, slack)
		}
	})
}
