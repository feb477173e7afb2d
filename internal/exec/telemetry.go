package exec

import "factorgraph/internal/telemetry"

const roundsHelp = "Promoted-drain rounds by kind: scatter (one sequential Gauss–Seidel scan) while the active rows own at most nnz/2 stored entries, delta (one exact whole-matrix round) past that."

// Process-wide round counters: which kind each promoted-drain round
// actually ran, i.e. where the nnz/DeltaDivisor boundary lands in
// production; a round is O(frontier·degree) work, so one increment per
// round is free.
var (
	mRoundsDelta   = telemetry.Default().Counter("fg_exec_rounds_total", roundsHelp, telemetry.Labels{"schedule": "delta"})
	mRoundsScatter = telemetry.Default().Counter("fg_exec_rounds_total", roundsHelp, telemetry.Labels{"schedule": "scatter"})
	mDenseRounds   = telemetry.Default().Counter("fg_exec_dense_rounds_total",
		"Full-matrix dense Jacobi rounds (propagation iterations, Init sweeps and whole-matrix drain rounds).")
)
