package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog is the flight recorder's adaptive slow-request threshold: the
// tracked p99 of a rolling window of request durations times a
// configurable factor, floored at a minimum. It keeps no requests of its
// own. The serving layer compares each finished request against
// Threshold, force-captures one that reaches it into the trace ring with
// the threshold stamped on it, and only then feeds the duration to
// Observe; /v1/admin/slowlog is the view of the retained traces that beat
// their stamped threshold. The per-request cost is two atomic ops (a
// window-slot store and a threshold load): no locks, no allocation. Every
// slowLogRefreshEvery-th observation also re-derives the threshold, by one
// pass over the window that keeps its few largest samples in a fixed
// array: O(window), still no allocation, and a lock only tried, never
// waited on.
//
// The threshold self-tunes: an idle server's p99 drops and the log starts
// catching its relative outliers; under load the p99 rises and only the
// genuinely anomalous tail is kept. Until the window has seen at least
// slowLogWarmup samples the threshold stays at +Inf (or the floor, when
// one is configured), so a cold server doesn't log its first requests as
// "slow" against an empty distribution.

const (
	// DefaultSlowLogFactor multiplies the tracked p99 into the capture
	// threshold.
	DefaultSlowLogFactor = 3.0
	// slowLogWindow is the rolling duration-sample window for p99 tracking.
	slowLogWindow = 512
	// slowLogWarmup is the minimum observations before the adaptive
	// threshold activates.
	slowLogWarmup = 16
	// slowLogRefreshEvery re-derives the threshold every N observations.
	slowLogRefreshEvery = 32
	// slowLogTop is how many of the largest samples refresh keeps: the
	// p99's rank from the top of a full window, m − ceil(0.99·m) + 1.
	slowLogTop = slowLogWindow - (slowLogWindow*99+99)/100 + 1
)

// SlowLog tracks the adaptive slow-request threshold.
type SlowLog struct {
	factor float64
	floor  time.Duration

	// Rolling duration window; racy slot overwrites are fine — the p99 is
	// a control signal, not an accounting value.
	window [slowLogWindow]atomic.Int64 // nanoseconds
	seq    atomic.Uint64               // total observations
	thresh atomic.Int64                // capture threshold in ns (MaxInt64 = off)

	refreshMu sync.Mutex // serializes threshold recomputation
}

// NewSlowLog builds the threshold tracker. factor scales the tracked p99
// into the capture threshold (≤0 = DefaultSlowLogFactor); floor is the
// minimum threshold — with a positive floor capture starts immediately at
// the floor, with floor 0 it stays off until the warmup window fills.
func NewSlowLog(factor float64, floor time.Duration) *SlowLog {
	if factor <= 0 {
		factor = DefaultSlowLogFactor
	}
	s := &SlowLog{factor: factor, floor: floor}
	if floor > 0 {
		s.thresh.Store(int64(floor))
	} else {
		s.thresh.Store(math.MaxInt64)
	}
	return s
}

// Threshold reports the capture threshold currently in force.
func (s *SlowLog) Threshold() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.thresh.Load())
}

// Observe feeds one request duration into the p99 window, re-deriving the
// threshold every slowLogRefreshEvery observations once warm. Safe on a
// nil SlowLog; a no-op while telemetry is disabled.
func (s *SlowLog) Observe(d time.Duration) {
	if s == nil || !enabledFlag.Load() {
		return
	}
	i := s.seq.Add(1)
	s.window[(i-1)%slowLogWindow].Store(int64(d))
	if i >= slowLogWarmup && (i == slowLogWarmup || i%slowLogRefreshEvery == 0) {
		s.refresh(i)
	}
}

// refresh re-derives the threshold from the window: max(floor, p99×factor).
func (s *SlowLog) refresh(seen uint64) {
	if !s.refreshMu.TryLock() {
		return // another goroutine is already refreshing
	}
	defer s.refreshMu.Unlock()
	n := int(seen)
	if n > slowLogWindow {
		n = slowLogWindow
	}
	// The p99 is the ceil(0.99·m)-th smallest of the m positive samples,
	// that is the (m − ceil(0.99·m) + 1)-th largest: never past the
	// slowLogTop-th, so one pass keeping the largest few finds it.
	var top [slowLogTop]int64 // descending
	kept, m := 0, 0
	for i := 0; i < n; i++ {
		v := s.window[i].Load()
		if v <= 0 {
			continue
		}
		m++
		j := kept
		switch {
		case kept < len(top):
			kept++
		case v <= top[kept-1]:
			continue
		default:
			j = kept - 1
		}
		for ; j > 0 && top[j-1] < v; j-- {
			top[j] = top[j-1]
		}
		top[j] = v
	}
	if m == 0 {
		return
	}
	p99 := top[m-(m*99+99)/100]
	thr := int64(float64(p99) * s.factor)
	if thr < int64(s.floor) {
		thr = int64(s.floor)
	}
	s.thresh.Store(thr)
}
