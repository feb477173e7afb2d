package residual

import "factorgraph/internal/telemetry"

// Flush-level work counters. They are batched: each Flush (state, patch or
// overlay) adds its Stats once at the end, so the push kernel itself —
// the o(Δ) hot loop — carries zero instrumentation.
var (
	mFlushes = telemetry.Default().Counter("fg_residual_flushes_total",
		"Residual flush sessions completed (state, patch and overlay).")
	mPushes = telemetry.Default().Counter("fg_residual_pushes_total",
		"Node pushes performed by residual drains.")
	mEdges = telemetry.Default().Counter("fg_residual_edges_traversed_total",
		"Edge traversals performed by residual drains.")
	mSweeps = telemetry.Default().Counter("fg_residual_sweeps_total",
		"Whole-matrix Jacobi rounds (Init sweeps and the rounds of flushes whose active rows owned over half of nnz).")
	mFallbacks = telemetry.Default().Counter("fg_residual_fallback_sweeps_total",
		"Flushes that ran at least one whole-matrix round.")
	mPromotions = telemetry.Default().Counter("fg_residual_tier_promotions_total",
		"Sparse-to-dense residual tier promotions (state and patch sessions).")
	mDemotions = telemetry.Default().Counter("fg_residual_tier_demotions_total",
		"Dense-to-sparse residual tier demotions.")
	mCertified = telemetry.Default().Counter("fg_residual_certified_stops_total",
		"Flushes a label certificate ended above the tolerance, every queried label provably final.")
)

// recordStats folds one completed drain's work into the process counters.
func recordStats(st Stats) {
	mFlushes.Inc()
	if st.Pushed > 0 {
		mPushes.Add(int64(st.Pushed))
	}
	if st.Edges > 0 {
		mEdges.Add(int64(st.Edges))
	}
	if st.Sweeps > 0 {
		mSweeps.Add(int64(st.Sweeps))
	}
	if st.FellBack {
		mFallbacks.Inc()
	}
	if st.Certified {
		mCertified.Inc()
	}
}
