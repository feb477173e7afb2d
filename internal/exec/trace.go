package exec

import "factorgraph/internal/telemetry"

// DrainTraced is Drain wrapped in an "exec.drain" trace span, so sampled
// requests see the execution core's share of a flush as its own node in
// the span tree. A nil trace costs one nil check over plain Drain.
func DrainTraced(tr *telemetry.Trace, f *Frontier, k PushKernel, edgeBudget int) (pushed, edges int, outcome DrainOutcome) {
	if tr == nil {
		return Drain(f, k, edgeBudget)
	}
	span := tr.Start("exec.drain")
	pushed, edges, outcome = Drain(f, k, edgeBudget)
	span.End()
	return pushed, edges, outcome
}
