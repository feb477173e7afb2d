package telemetry

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// TestSlowLogWarmup checks that with no floor the threshold stays off
// before the warmup window fills, and that after warmup it tracks
// p99×factor.
func TestSlowLogWarmup(t *testing.T) {
	s := NewSlowLog(2, 0)
	if s.Threshold() <= 0 {
		t.Fatal("pre-warmup threshold should be effectively infinite")
	}
	for i := 0; i < slowLogWarmup-1; i++ {
		s.Observe(time.Millisecond)
	}
	if thr := s.Threshold(); thr != math.MaxInt64 {
		t.Fatalf("threshold = %v before warmup, want off", thr)
	}
	// The warmup-th observation derives the first threshold: p99 of a
	// uniform 1ms window ×2 = 2ms.
	s.Observe(time.Millisecond)
	if thr := s.Threshold(); thr != 2*time.Millisecond {
		t.Fatalf("threshold = %v, want 2ms", thr)
	}
}

// TestSlowLogFloor checks a positive floor activates capture immediately
// and keeps the adaptive threshold from dropping below it.
func TestSlowLogFloor(t *testing.T) {
	s := NewSlowLog(100, 10*time.Millisecond)
	if thr := s.Threshold(); thr != 10*time.Millisecond {
		t.Fatalf("initial threshold = %v, want the 10ms floor", thr)
	}
	for i := 0; i < slowLogWarmup; i++ {
		s.Observe(time.Microsecond) // p99×100 = 100µs, under the floor
	}
	if thr := s.Threshold(); thr != 10*time.Millisecond {
		t.Fatalf("warm threshold = %v, want the 10ms floor", thr)
	}
}

// TestSlowLogDisabled checks the global kill switch stops the window from
// filling, and that a nil SlowLog is inert.
func TestSlowLogDisabled(t *testing.T) {
	defer SetEnabled(true)
	s := NewSlowLog(1, 0)
	SetEnabled(false)
	for i := 0; i < slowLogWarmup; i++ {
		s.Observe(time.Second)
	}
	if thr := s.Threshold(); thr != math.MaxInt64 {
		t.Errorf("threshold = %v after observing while disabled, want off", thr)
	}
	SetEnabled(true)
	var nilLog *SlowLog
	nilLog.Observe(time.Second)
	if nilLog.Threshold() != 0 {
		t.Error("nil SlowLog should be inert")
	}
}

// sortedThreshold is the sort-based reference for refresh: the
// ceil(0.99·m)-th smallest of the m positive samples among the first
// min(seen, window) slots, times the factor, floored.
func sortedThreshold(window []int64, seen int, factor float64, floor time.Duration, prev int64) int64 {
	var durs []int64
	for _, v := range window[:min(seen, len(window))] {
		if v > 0 {
			durs = append(durs, v)
		}
	}
	if len(durs) == 0 {
		return prev
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	idx := min((len(durs)*99+99)/100, len(durs))
	return max(int64(float64(durs[idx-1])*factor), int64(floor))
}

// TestSlowLogRefreshMatchesSort checks the selection in refresh stores
// exactly the threshold a full sort yields, on random windows with ties,
// zero and negative slots, partly filled windows and the warm-up boundary.
func TestSlowLogRefreshMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 4000; trial++ {
		var seen int
		switch trial % 4 {
		case 0:
			seen = slowLogWarmup
		case 1:
			seen = slowLogWarmup + rng.IntN(slowLogWindow-slowLogWarmup)
		case 2:
			seen = slowLogWindow
		default:
			seen = slowLogWindow + 1 + rng.IntN(10*slowLogWindow)
		}
		factor := []float64{3, 1e-6, 1.5, 1}[rng.IntN(4)]
		floor := []time.Duration{0, 1, 500 * time.Microsecond}[rng.IntN(3)]
		span := []int64{1, 3, 1000, 1 << 40}[rng.IntN(4)] // small spans tie often
		zeroShare := rng.Float64()
		s := NewSlowLog(factor, floor)
		prev := s.thresh.Load()
		window := make([]int64, slowLogWindow)
		for i := range window[:min(seen, slowLogWindow)] {
			switch r := rng.Float64(); {
			case r < zeroShare:
			case r < zeroShare+0.02:
				window[i] = -rng.Int64N(span) - 1
			default:
				window[i] = 1 + rng.Int64N(span)
			}
			s.window[i].Store(window[i])
		}
		s.refresh(uint64(seen))
		if got, want := s.thresh.Load(), sortedThreshold(window, seen, factor, floor, prev); got != want {
			t.Fatalf("trial %d (seen %d, factor %g, floor %v): threshold %d, sort gives %d", trial, seen, factor, floor, got, want)
		}
	}
}

// TestSlowLogRefreshAllocs pins the threshold derivation as allocation-free.
func TestSlowLogRefreshAllocs(t *testing.T) {
	s := NewSlowLog(3, 0)
	for i := range s.window {
		s.window[i].Store(int64(i%37 + 1))
	}
	if n := testing.AllocsPerRun(100, func() { s.refresh(slowLogWindow) }); n != 0 {
		t.Errorf("refresh allocates %.0f times, want 0", n)
	}
}
