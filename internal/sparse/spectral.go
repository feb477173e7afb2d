package sparse

import "math"

const (
	// rhoTol is the relative accuracy the top Ritz value converges to: the
	// Lanczos loop stops once its Ritz residual, or its change over one
	// step, is at most rhoTol·θ.
	rhoTol = 1e-10
	// rhoMaxSteps caps the Lanczos steps of the memoized bracket. The
	// benchmark's graphs converge in 12–20 steps; past the cap the bracket
	// is still valid, only wider.
	rhoMaxSteps = 50
	// rhoSmoothProducts is the number of products W·y the upper bound
	// takes from the Ritz vector y: all but the last are smoothing steps
	// that damp the Ritz vector's error on rows where the Perron vector is
	// small, and the last one feeds the Collatz–Wielandt quotient.
	rhoSmoothProducts = 2
	// rhoSlabSteps sizes the first Lanczos slab; a graph that needs more
	// steps doubles it.
	rhoSlabSteps = 24
)

// SpectralRadius returns ρ(W) as the converged top Ritz value of at most
// maxSteps Lanczos steps; it is SpectralBracket's lower end. W must be
// symmetric with nonnegative entries, as every adjacency matrix in this
// codebase is: Lanczos needs the symmetry, and Perron–Frobenius makes the
// top eigenvalue the spectral radius. A non-symmetric matrix gets a
// meaningless value. This replaces the paper's PyAMG approximate
// eigensolver.
func (c *CSR) SpectralRadius(maxSteps int) float64 {
	rho, _ := c.SpectralBracket(maxSteps)
	return rho
}

// SpectralBracket returns a bracket rho ≤ ρ(W) ≤ upper for a symmetric W
// with nonnegative entries. rho is the top Ritz value of a plain
// three-term Lanczos recurrence from the all-ones vector, run until it
// converges to rhoTol relative or for maxSteps steps; a Ritz value never
// exceeds λ_max. upper is the Collatz–Wielandt quotient maxᵢ (Wy)ᵢ/yᵢ of
// the smoothed Ritz vector y, a bound for any y > 0 up to the
// rounding of one row sum. Isolated rows add only zero eigenvalues and are
// skipped. Where y is not of one sign on every row, each connected
// component is bounded on its own: by its quotient where y is of one sign
// on it, else by its largest absolute row sum.
//
// The products run row-parallel on the shared pool and every reduction
// runs serially in a fixed order, so the bracket is bit-identical for any
// worker count. The Lanczos vectors share one slab and the allocations do
// not grow with n or with the steps taken up to rhoSlabSteps.
func (c *CSR) SpectralBracket(maxSteps int) (rho, upper float64) {
	n := c.N
	if n == 0 || c.NNZ() == 0 || maxSteps < 1 {
		return 0, 0
	}
	steps := min(maxSteps, n)
	slab := make([]float64, (min(steps, rhoSlabSteps)+1)*n)
	vec := func(j int) []float64 { return slab[j*n : (j+1)*n : (j+1)*n] }
	// tri holds T's diagonal α and off-diagonal β, its top eigenvector s,
	// and the pivots of the eigensolve.
	tri := make([]float64, 4*steps)
	alpha, beta, s, piv := tri[:steps], tri[steps:2*steps], tri[2*steps:3*steps], tri[3*steps:]

	var dst, src []float64
	rows := func(lo, hi int) { c.mulVecRows(dst, src, lo, hi) }
	mul := func(out, v []float64) {
		dst, src = out, v
		c.runVecRows(rows)
	}

	q0 := vec(0)
	for i := range q0 {
		// All-ones start: deterministic, and it has a positive overlap with
		// the Perron vector of every component.
		q0[i] = 1 / math.Sqrt(float64(n))
	}
	var theta float64
	m := 0 // Lanczos vectors q_0 … q_{m−1} span the Krylov space
	for j := 0; ; j++ {
		if (j+2)*n > len(slab) {
			grown := make([]float64, min(2*len(slab), (steps+1)*n))
			copy(grown, slab)
			slab = grown
		}
		q, w := vec(j), vec(j+1)
		mul(w, q)
		a := dot(w, q)
		var b2 float64
		if j == 0 {
			for i, qi := range q {
				w[i] -= a * qi
				b2 += w[i] * w[i]
			}
		} else {
			qp, bp := vec(j-1), beta[j-1]
			for i, qi := range q {
				w[i] -= a*qi + bp*qp[i]
				b2 += w[i] * w[i]
			}
		}
		alpha[j], beta[j] = a, math.Sqrt(b2)
		m = j + 1
		prev := theta
		theta = tridiagTop(alpha[:m], beta[:m-1], s[:m], piv[:m], prev)
		resid := beta[j] * math.Abs(s[j])
		if resid <= rhoTol*theta || (j > 0 && theta-prev <= rhoTol*theta) || m == steps {
			break
		}
		for i := range w {
			w[i] /= beta[j]
		}
	}
	if theta <= 0 {
		return 0, 0 // every stored weight is zero
	}

	buf := make([]float64, 2*n)
	y, z := buf[:n:n], buf[n:]
	for j := 0; j < m; j++ {
		sj, q := s[j], vec(j)
		for i, qi := range q {
			y[i] += sj * qi
		}
	}
	for p := 1; ; p++ {
		mul(z, y)
		if p == rhoSmoothProducts {
			break
		}
		for i := range z {
			z[i] /= theta
		}
		y, z = z, y
	}
	// λ_max lies in both bounds, so only rounding can put ρ̄ below θ.
	return theta, max(theta, c.collatzWielandt(y, z))
}

// collatzWielandt returns maxᵢ zᵢ/yᵢ over the non-isolated rows, with
// z = W·y, when y is of one sign on all of them; otherwise it bounds each
// connected component separately (see SpectralBracket).
func (c *CSR) collatzWielandt(y, z []float64) float64 {
	ip := c.IndPtr
	var upper float64
	pos, neg := true, true
	for i := range y {
		if ip[i] == ip[i+1] {
			continue
		}
		pos = pos && y[i] > 0
		neg = neg && y[i] < 0
		if pos || neg {
			upper = max(upper, z[i]/y[i])
		}
	}
	if pos || neg {
		return upper
	}

	// Breadth-first over each component; seen marks queued rows.
	upper = 0
	seen := make([]bool, c.N)
	queue := make([]int32, 0, c.N)
	for root := range y {
		if seen[root] || ip[root] == ip[root+1] {
			continue
		}
		seen[root] = true
		queue = append(queue[:0], int32(root))
		pos, neg = true, true
		var quot, rowSum float64
		for h := 0; h < len(queue); h++ {
			i := queue[h]
			pos = pos && y[i] > 0
			neg = neg && y[i] < 0
			quot = max(quot, z[i]/y[i])
			var sum float64
			for p := ip[i]; p < ip[i+1]; p++ {
				if c.Data == nil {
					sum++
				} else {
					sum += math.Abs(c.Data[p])
				}
				if col := c.Indices[p]; !seen[col] {
					seen[col] = true
					queue = append(queue, col)
				}
			}
			rowSum = max(rowSum, sum)
		}
		if pos || neg {
			upper = max(upper, quot)
		} else {
			upper = max(upper, rowSum)
		}
	}
	return upper
}

// tridiagTop returns the largest eigenvalue θ of the symmetric tridiagonal
// matrix T with diagonal alpha and positive off-diagonal beta, and writes
// its unit eigenvector, signed so that s[0] > 0, into s. lo is a lower
// bound on θ (the previous Ritz value: by interlacing θ never falls); piv
// is scratch of len(alpha).
func tridiagTop(alpha, beta, s, piv []float64, lo float64) float64 {
	m := len(alpha)
	// ldl writes the pivots of T − xI = LDLᵀ into piv and reports whether
	// all are negative: by Sylvester's law of inertia, whether x lies above
	// every eigenvalue.
	ldl := func(x float64) bool {
		for i, a := range alpha {
			piv[i] = a - x
			if i > 0 {
				piv[i] -= beta[i-1] * beta[i-1] / piv[i-1]
			}
			if !(piv[i] < 0) {
				return false
			}
		}
		return true
	}
	// Gershgorin: every eigenvalue lies below hi; θ ≥ every diagonal entry.
	hi, scale := math.Inf(-1), 0.0
	for i, a := range alpha {
		r := 0.0
		if i > 0 {
			r += beta[i-1]
		}
		if i < m-1 {
			r += beta[i]
		}
		hi = max(hi, a+r)
		lo = max(lo, a)
		scale = max(scale, math.Abs(a)+r)
	}
	if scale == 0 {
		clear(s)
		s[0] = 1
		return 0
	}
	lo = min(lo, hi)
	for hi-lo > 2*eps*scale {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if ldl(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	theta := lo

	// Two steps of inverse iteration from the all-ones vector with a shift
	// just above θ: T − σI is negative definite there, so its LDLᵀ needs no
	// pivoting, and each step shrinks every other eigendirection by a
	// factor of about 1e-10.
	ldl(theta + 1e-10*scale)
	for i := range s {
		s[i] = 1
	}
	for range 2 {
		for i := 1; i < m; i++ {
			s[i] -= beta[i-1] / piv[i-1] * s[i-1]
		}
		for i := range s {
			s[i] /= piv[i]
		}
		for i := m - 2; i >= 0; i-- {
			s[i] -= beta[i] / piv[i] * s[i+1]
		}
		l := norm(s)
		if s[0] < 0 {
			l = -l
		}
		for i := range s {
			s[i] /= l
		}
	}
	return theta
}

// eps is the float64 unit roundoff.
const eps = 0x1p-52

// rhoMemo is the memoized bracket of SpectralBracketCached.
type rhoMemo struct {
	rho, upper float64
}

// SpectralBracketCached returns SpectralBracket(rhoMaxSteps), computed on
// first use and memoized on the matrix. A long-lived serving engine derives
// ε from ρ(W) at every build and compaction, and a propagation state at
// every construction; the Lanczos run — O(m) per step — happens once per
// matrix instead. Safe for concurrent callers: the bracket is
// deterministic, a race at worst computes it twice, and every caller reads
// the one memo that was stored first.
func (c *CSR) SpectralBracketCached() (rho, upper float64) {
	p := c.rho.Load()
	if p == nil {
		r, u := c.SpectralBracket(rhoMaxSteps)
		c.rho.CompareAndSwap(nil, &rhoMemo{rho: r, upper: u})
		p = c.rho.Load()
	}
	return p.rho, p.upper
}

// SpectralRadiusCached returns the lower end of SpectralBracketCached: the
// ρ(W) every ε = s/(ρ(W)·ρ(H̃)) in the codebase uses.
func (c *CSR) SpectralRadiusCached() float64 {
	rho, _ := c.SpectralBracketCached()
	return rho
}

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

func norm(v []float64) float64 {
	return math.Sqrt(dot(v, v))
}
