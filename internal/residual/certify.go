package residual

import (
	"math"

	"factorgraph/internal/dense"
)

const (
	// sigmaSquarings is how many times sigmaBound squares HᵀH. After j
	// squarings the ∞-norm bound overshoots σ_max by at most a factor
	// k^(2^-(j+2)): 1 + ln(k)·2.3e-10 at j = 30.
	sigmaSquarings = 30
	// sigmaRound covers the rounding of sigmaBound's products, per k³: a
	// squaring of the normalized matrix moves its spectral radius by at
	// most k³·u relative, and the j squarings weigh those moves by
	// 2^-(i+1), so they sum below k³·u ≪ k³·2^-40.
	sigmaRound = 0x1p-40
	// certRowSlack is added to every row's residual ∞-norm when the
	// certificate sums them: it covers the rounding of a recomputed
	// residual entry, (d+2)·u times the magnitude of its terms on a row of d
	// stored entries, for d·magnitude up to ~10⁵ (beliefs are O(1)).
	certRowSlack = 1e-10
	// certSumSlack scales the certificate bound up to cover the rounding of
	// the sequential sum over n rows (n·u relative) for n up to ~10⁹.
	certSumSlack = 1e-6
)

// sigmaBound returns a certified upper bound σ̄ on the largest singular
// value of the square matrix h. With M = HᵀH (symmetric, PSD) and any
// induced norm, σ_max² = ρ(M) = ρ(M^m)^(1/m) ≤ ‖M^m‖^(1/m) for every m, so
// squaring M j times gives σ_max ≤ ‖M^(2^j)‖_∞^(2^-(j+1)). Each square is
// rescaled to unit ∞-norm, keeping the scales cᵢ as a weighted log sum:
// log ‖M^(2^j)‖^(2^-j) = log c₀ + Σᵢ 2^-i·log cᵢ. Power iteration would
// approach σ_max from below, which a certificate cannot use.
//
// Slack: since ‖N‖_∞ ≤ √k·‖N‖₂ for a symmetric k×k N, the exact bound is
// at most σ_max·k^(2^-(j+2)); rounding adds at most k³·sigmaRound relative.
// The result is σ_max·(1 + δ) with 0 ≤ δ ≤ ln(k)·2^-(j+2) + 2k³·sigmaRound.
func sigmaBound(h *dense.Matrix) float64 {
	k := h.Rows
	m := make([]float64, 2*k*k)
	a, sq := m[:k*k], m[k*k:]
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			var v float64
			for r := 0; r < k; r++ {
				v += h.Data[r*k+i] * h.Data[r*k+j]
			}
			a[i*k+j] = v
		}
	}
	c := normInf(a, k)
	if c == 0 {
		return 0
	}
	logB, weight := math.Log(c), 1.0
	for range sigmaSquarings {
		for i := range a {
			a[i] /= c
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				var v float64
				for r := 0; r < k; r++ {
					v += a[i*k+r] * a[r*k+j]
				}
				sq[i*k+j] = v
			}
		}
		a, sq = sq, a
		c = normInf(a, k) // ≥ 1/k²: a PSD square's diagonal holds its rows' squared norms
		weight /= 2
		logB += weight * math.Log(c)
	}
	kf := float64(k)
	return math.Exp(logB/2) * (1 + kf*kf*kf*sigmaRound)
}

// normInf returns the largest absolute row sum of the k×k matrix a.
func normInf(a []float64, k int) float64 {
	var top float64
	for i := 0; i < k; i++ {
		var sum float64
		for _, v := range a[i*k : (i+1)*k] {
			sum += math.Abs(v)
		}
		top = max(top, sum)
	}
	return top
}

// Certify arms the session's label certificate for a flush whose caller
// reads only the labels of nodes. wNorm must bound ‖W′‖₂ for the adjacency
// the session drains over — for a delta overlay ρ̄(W_base) plus its
// Gershgorin drift bound, by Weyl's inequality. With s̄ = σ̄(H̃ε)·wNorm < 1
// the promoted drain then stops after the first whole-matrix round that
// leaves every node's label provably final (see Flush); with s̄ ≥ 1 Certify
// does nothing and the flush runs to the tolerance. Call it before Flush.
// nodes is read during Flush and not retained past the session.
func (p *Patch) Certify(nodes []int, wNorm float64) {
	sBar := p.base.sigmaH * wNorm
	if !(sBar < 1) {
		return
	}
	p.certNodes, p.certGap = nodes, 1-sBar
}

// bound returns the certificate's B for the promoted session's current
// (F, R), which must be exact — fresh from a whole-matrix round:
// B = (1+certSumSlack)·√(k·Σᵢ(‖Rᵢ‖_∞ + certRowSlack)²)/(1 − s̄) ≥ ‖F* − F‖_F.
// The sum is one sequential pass over the norm table, so B is the same at
// every worker count.
func (p *Patch) bound() float64 {
	var sum float64
	for _, v := range p.norms {
		v += certRowSlack
		sum += v * v
	}
	return (1 + certSumSlack) * math.Sqrt(float64(p.base.k)*sum) / p.certGap
}

// labelsFinal is the certificate the promoted drain asks after a
// whole-matrix round: every certified node's top-2 belief margin exceeds
// 2B. It records a true answer, so Flush can report the stop and Apply can
// refuse the session.
func (p *Patch) labelsFinal() bool {
	b := p.bound()
	if p.boundHook != nil {
		p.boundHook(b)
	}
	for _, node := range p.certNodes {
		if !(topMargin(p.df.Row(node)) > 2*b) {
			return false
		}
	}
	p.certified = true
	return true
}

// topMargin returns the gap between the largest and second-largest entry
// of row (+Inf for a one-entry row).
func topMargin(row []float64) float64 {
	top1, top2 := math.Inf(-1), math.Inf(-1)
	for _, v := range row {
		if v > top1 {
			top1, top2 = v, top1
		} else if v > top2 {
			top2 = v
		}
	}
	return top1 - top2
}
