package exec

import "factorgraph/internal/telemetry"

const roundsHelp = "Promoted-drain rounds by schedule: tracked (parallel pull) or scatter (one worker) while the active rows own at most nnz/2 stored entries, delta (one exact whole-matrix round) past that."

// Process-wide schedule counters: which drain schedule each round actually
// ran, i.e. where the nnz/deltaDivisor and minPullWorkers boundaries land
// in production; a round is O(frontier·degree) work, so one increment per
// round is free.
var (
	mRoundsTracked = telemetry.Default().Counter("fg_exec_rounds_total", roundsHelp, telemetry.Labels{"schedule": "tracked"})
	mRoundsDelta   = telemetry.Default().Counter("fg_exec_rounds_total", roundsHelp, telemetry.Labels{"schedule": "delta"})
	mRoundsScatter = telemetry.Default().Counter("fg_exec_rounds_total", roundsHelp, telemetry.Labels{"schedule": "scatter"})
	mDenseRounds   = telemetry.Default().Counter("fg_exec_dense_rounds_total",
		"Full-matrix dense Jacobi rounds (propagation iterations, Init sweeps and whole-matrix drain rounds).")
)
