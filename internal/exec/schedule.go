package exec

// Schedule holds the drain-schedule thresholds a PullPass runs under.
type Schedule struct {
	// DeltaDivisor: a round is tracked while its active rows own at most
	// nnz(W)/DeltaDivisor stored entries, and one whole-matrix ExactRound
	// past that.
	DeltaDivisor int
	// MinPullWorkers: below this many chunks a tracked round runs the
	// sequential Gauss–Seidel scatter schedule instead of the parallel pull.
	MinPullWorkers int
	// Sticky routes gather candidates to workers by node range, so chunk c
	// touches the same belief/residual range every round (cache-warm
	// repeats) instead of whatever slice of the discovery order it drew.
	Sticky bool
}

// stickyMinBytes: sticky gather pays a sequential bucketing pass per round;
// it wins once the dense rows outgrow L2, i.e. when repeat-touch locality
// is worth protecting.
const stickyMinBytes = 1 << 20

// DefaultSchedule returns the schedule every pass over an n×k belief matrix
// runs under. The thresholds are the values a measured per-graph tuner
// settled on for every engine of every committed benchmark run; every
// schedule drains to the same tolerance (TestTunedSchedulesConverge), so they
// decide speed, never beliefs.
func DefaultSchedule(n, k int) Schedule {
	return Schedule{
		DeltaDivisor:   deltaDivisor,
		MinPullWorkers: minPullWorkers,
		Sticky:         n*k*8 > stickyMinBytes,
	}
}
