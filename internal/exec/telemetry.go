package exec

import "factorgraph/internal/telemetry"

// Process-wide schedule counters: which drain schedule each round actually
// ran, i.e. where the n/deltaDivisor and minPullWorkers boundaries land in
// production; a round is O(frontier·degree) work, so one increment per
// round is free.
var (
	mRoundsTracked = telemetry.Default().Counter("fg_exec_rounds_total",
		"Pull-pass drain rounds by schedule.", telemetry.Labels{"schedule": "tracked"})
	mRoundsDelta = telemetry.Default().Counter("fg_exec_rounds_total",
		"Pull-pass drain rounds by schedule.", telemetry.Labels{"schedule": "delta"})
	mRoundsScatter = telemetry.Default().Counter("fg_exec_rounds_total",
		"Pull-pass drain rounds by schedule.", telemetry.Labels{"schedule": "scatter"})
	mDenseRounds = telemetry.Default().Counter("fg_exec_dense_rounds_total",
		"Full-matrix dense Jacobi rounds (sweeps and delta-round cores).")
)
