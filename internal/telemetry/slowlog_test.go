package telemetry

import (
	"math"
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
