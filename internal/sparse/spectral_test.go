package sparse

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// refSpectralRadius is the power iteration written plainly — a fresh
// flat-scan product per iteration, normalized and copied back — run to a
// step count far past convergence: the reference the Lanczos ρ is held to.
func refSpectralRadius(c *CSR, iters int) float64 {
	if c.N == 0 || c.NNZ() == 0 {
		return 0
	}
	v := make([]float64, c.N)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(c.N))
	}
	var lambda float64
	for it := 0; it < iters; it++ {
		w := flatMulVec(c, v)
		l := norm(w)
		if l == 0 {
			return 0
		}
		for i := range w {
			w[i] /= l
		}
		copy(v, w)
		lambda = l
	}
	return lambda
}

// TestSpectralRadiusLanczos holds the bracket to a 2 000-step power
// iteration on graphs shaped like the benchmark's U20k, P10k and P20k: ρ
// converges within 20 Lanczos steps to 1e-9 relative, ρ̄ lies within 1e-3
// of it, the allocations are the same whatever n and the step cap, and the
// bracket is bit for bit the same on one worker and on four.
func TestSpectralRadiusLanczos(t *testing.T) {
	none := func(int) bool { return false }
	allocs := -1.0
	for _, g := range []struct {
		name     string
		n, m     int
		powerLaw bool
	}{{"U20k", 20000, 100000, false}, {"P10k", 10000, 50000, true}, {"P20k", 20000, 100000, true}} {
		c := randSpmmCSR(t, g.n, g.m, g.powerLaw, false, none, 20)
		rho, upper := c.SpectralBracket(20)
		ref := refSpectralRadius(c, 2000)
		if math.Abs(rho-ref) > 1e-9*ref {
			t.Errorf("%s: ρ = %v after ≤ 20 steps, reference %v", g.name, rho, ref)
		}
		if !(upper >= rho && upper-rho <= 1e-3*rho) {
			t.Errorf("%s: bracket [%v, %v] wider than 1e-3·ρ", g.name, rho, upper)
		}
		for _, steps := range []int{20, rhoMaxSteps, 2000} {
			a := testing.AllocsPerRun(2, func() { c.SpectralBracket(steps) })
			if allocs < 0 {
				allocs = a
			}
			if a != allocs {
				t.Errorf("%s: SpectralBracket(%d) made %v allocations, %v elsewhere", g.name, steps, a, allocs)
			}
		}
		if r, u := withWorkers(4, func() (float64, float64) { return c.SpectralBracket(rhoMaxSteps) }); r != rho || u != upper {
			t.Errorf("%s: four workers give [%v, %v], one worker [%v, %v]", g.name, r, u, rho, upper)
		}
	}
}

// withWorkers runs f with GOMAXPROCS and the shared pool at the given
// width, so a parallel product really splits into that many chunks, then
// restores both.
func withWorkers(workers int, f func() (float64, float64)) (float64, float64) {
	saved := defaultPool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	defaultPool = newWorkerPool(workers)
	defer func() {
		close(defaultPool.tasks)
		defaultPool = saved
	}()
	return f()
}

// jacobiMaxEig returns the largest eigenvalue of the dense symmetric
// matrix a (row-major, n×n) by cyclic Jacobi rotations; a is overwritten.
func jacobiMaxEig(a []float64, n int) float64 {
	if n == 0 {
		return 0
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i*n+j] * a[i*n+j]
			}
		}
		if off < 1e-30 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if apq == 0 {
					continue
				}
				theta := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				tn := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					tn = -tn
				}
				cs := 1 / math.Sqrt(tn*tn+1)
				sn := tn * cs
				for k := 0; k < n; k++ {
					akp, akq := a[k*n+p], a[k*n+q]
					a[k*n+p], a[k*n+q] = cs*akp-sn*akq, sn*akp+cs*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p*n+k], a[q*n+k]
					a[p*n+k], a[q*n+k] = cs*apk-sn*aqk, sn*apk+cs*aqk
				}
			}
		}
	}
	top := math.Inf(-1)
	for i := 0; i < n; i++ {
		top = max(top, a[i*n+i])
	}
	return top
}

// edgesConnected reports whether the rows with edges form one component.
func edgesConnected(c *CSR) bool {
	seen := make([]bool, c.N)
	var stack []int32
	components := 0
	for root := 0; root < c.N; root++ {
		if seen[root] || c.IndPtr[root] == c.IndPtr[root+1] {
			continue
		}
		components++
		seen[root] = true
		stack = append(stack[:0], int32(root))
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cols, _ := c.Row(int(i))
			for _, j := range cols {
				if !seen[j] {
					seen[j] = true
					stack = append(stack, j)
				}
			}
		}
	}
	return components == 1
}

// checkBracket asserts ρ ≤ λ_max ≤ ρ̄ < ∞ against a dense eigensolve,
// up to the rounding of both computations, and returns the bracket.
func checkBracket(t *testing.T, name string, c *CSR) (rho, upper float64) {
	t.Helper()
	rho, upper = c.SpectralBracket(rhoMaxSteps)
	lmax := max(jacobiMaxEig(c.ToDense().Data, c.N), 0)
	slack := 1e-12 * (1 + lmax)
	if math.IsNaN(rho) || math.IsNaN(upper) || math.IsInf(upper, 0) ||
		rho > lmax+slack || lmax > upper+slack {
		t.Errorf("%s: bracket [%v, %v] does not hold λ_max = %v", name, rho, upper, lmax)
	}
	return rho, upper
}

// TestSpectralBracketProperty checks the bracket against a dense Jacobi
// eigensolve on small graphs of every shape the bound treats differently,
// and holds it to 1e-3 relative wherever the edges are connected.
func TestSpectralBracketProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(35, 36))
	build := func(n int, edges [][2]int32, weights []float64) *CSR {
		c, err := NewSymmetricFromEdges(n, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	randomEdges := func(n int, p float64, keep func(u, v int) bool) [][2]int32 {
		var edges [][2]int32
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if keep(u, v) && r.Float64() < p {
					edges = append(edges, [2]int32{int32(u), int32(v)})
				}
			}
		}
		return edges
	}
	all := func(u, v int) bool { return true }
	spine := func(n int) [][2]int32 { // a path, so the graph is connected
		var edges [][2]int32
		for u := 0; u+1 < n; u++ {
			edges = append(edges, [2]int32{int32(u), int32(u + 1)})
		}
		return edges
	}
	type graphCase struct {
		name  string
		build func() *CSR
	}
	var cases []graphCase
	for i := 0; i < 20; i++ {
		cases = append(cases,
			graphCase{"connected", func() *CSR {
				n := 3 + r.IntN(40)
				return build(n, append(spine(n), randomEdges(n, 0.2, all)...), nil)
			}},
			graphCase{"bipartite", func() *CSR {
				n := 4 + r.IntN(40)
				odd := func(u, v int) bool { return (u+v)%2 == 1 }
				return build(n, append(spine(n), randomEdges(n, 0.3, odd)...), nil)
			}},
			graphCase{"isolated", func() *CSR {
				n := 3 + r.IntN(30)
				return build(n+1+r.IntN(10), append(spine(n), randomEdges(n, 0.2, all)...), nil)
			}},
			graphCase{"weighted", func() *CSR {
				n := 3 + r.IntN(40)
				edges := append(spine(n), randomEdges(n, 0.2, all)...)
				weights := make([]float64, len(edges))
				for i := range weights {
					weights[i] = 0.1 + 2*r.Float64()
				}
				return build(n, edges, weights)
			}},
			graphCase{"disconnected random", func() *CSR {
				n := 3 + r.IntN(40)
				edges := randomEdges(n, 0.08, all)
				var weights []float64
				for range edges {
					weights = append(weights, 0.5+r.Float64())
				}
				if i%2 == 0 {
					weights = nil
				}
				return build(n, edges, weights)
			}},
		)
	}
	// A 200-leaf star beside a chorded cycle: the Ritz vector is of one
	// sign on the star and mixed on the cycle.
	starCycle := func() *CSR {
		var edges [][2]int32
		for leaf := 1; leaf <= 200; leaf++ {
			edges = append(edges, [2]int32{0, int32(leaf)})
		}
		const c0, cn = 201, 12
		for i := 0; i < cn; i++ {
			edges = append(edges, [2]int32{int32(c0 + i), int32(c0 + (i+1)%cn)})
		}
		edges = append(edges, [2]int32{c0, c0 + 5}, [2]int32{c0 + 2, c0 + 9})
		return build(c0+cn, edges, nil)
	}
	regular := func(n, d int) func() *CSR { // circulant: i ~ i±1 … i±d/2
		return func() *CSR {
			var edges [][2]int32
			for i := 0; i < n; i++ {
				for k := 1; k <= d/2; k++ {
					edges = append(edges, [2]int32{int32(i), int32((i + k) % n)})
				}
			}
			return build(n, edges, nil)
		}
	}
	cases = append(cases,
		graphCase{"star beside chorded cycle", starCycle},
		graphCase{"regular cycle", regular(9, 2)},
		graphCase{"regular circulant", regular(30, 6)},
		graphCase{"complete bipartite", func() *CSR {
			var edges [][2]int32
			for u := 0; u < 3; u++ {
				for v := 3; v < 10; v++ {
					edges = append(edges, [2]int32{int32(u), int32(v)})
				}
			}
			return build(10, edges, nil)
		}},
		graphCase{"single edge among isolated", func() *CSR { return build(7, [][2]int32{{2, 5}}, nil) }},
		graphCase{"zero weights", func() *CSR { return build(4, spine(4), make([]float64, 3)) }},
		graphCase{"long path", func() *CSR { return build(300, spine(300), nil) }},
		graphCase{"empty", func() *CSR { return build(5, nil, nil) }},
		graphCase{"no nodes", func() *CSR { return build(0, nil, nil) }},
	)
	for _, tc := range cases {
		c := tc.build()
		rho, upper := checkBracket(t, tc.name, c)
		if edgesConnected(c) && upper-rho > 1e-3*rho {
			t.Errorf("%s (n=%d): connected, bracket [%v, %v] wider than 1e-3·ρ", tc.name, c.N, rho, upper)
		}
		if c.NNZ() == 0 && (rho != 0 || upper != 0) {
			t.Errorf("%s: no edges, bracket [%v, %v]", tc.name, rho, upper)
		}
	}
}

// FuzzSpectralBracket turns bytes into a small graph — a node count, a
// weight flag, then (u, v[, w]) records — and checks ρ ≤ λ_max ≤ ρ̄ < ∞
// against a dense eigensolve.
func FuzzSpectralBracket(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{6, 1, 0, 1, 9, 1, 2, 1, 4, 5, 200})
	f.Add([]byte{12, 0, 0, 1, 0, 2, 0, 3, 5, 6, 6, 7, 7, 5})
	f.Add([]byte{3, 0, 1, 1, 2, 2})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n, weighted, body := int(in[0]%48), in[1]&1 != 0, in[2:]
		if n == 0 {
			body = nil
		}
		width := 2
		if weighted {
			width = 3
		}
		var edges [][2]int32
		var weights []float64
		for ; len(body) >= width; body = body[width:] {
			edges = append(edges, [2]int32{int32(int(body[0]) % n), int32(int(body[1]) % n)})
			if weighted {
				weights = append(weights, float64(body[2])/16)
			}
		}
		c, err := NewSymmetricFromEdges(n, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		checkBracket(t, "fuzz", c)
	})
}
