package telemetry

import (
	"testing"
	"time"
)

// TestTimelineRing checks sampling into the ring, oldest-first unrolling
// and wraparound once the ring fills.
func TestTimelineRing(t *testing.T) {
	var v float64
	tl := NewTimeline(time.Hour, 3, func(emit func(scope, name string, v float64)) { // manual sampling only
		v++
		emit("", "qps", v)
	})
	for i := 0; i < 2; i++ {
		tl.Sample()
	}
	snap := tl.Snapshot("", false)
	if len(snap) != 1 || snap[0].Name != "qps" {
		t.Fatalf("snapshot = %+v, want one series qps", snap)
	}
	if got := len(snap[0].Points); got != 2 {
		t.Fatalf("points = %d, want 2", got)
	}
	if snap[0].Points[0].Value != 1 || snap[0].Points[1].Value != 2 {
		t.Errorf("points out of order: %+v", snap[0].Points)
	}
	for i := 0; i < 4; i++ { // overflow the 3-slot ring
		tl.Sample()
	}
	snap = tl.Snapshot("", false)
	pts := snap[0].Points
	if len(pts) != 3 {
		t.Fatalf("points after wrap = %d, want 3", len(pts))
	}
	if pts[0].Value != 4 || pts[1].Value != 5 || pts[2].Value != 6 {
		t.Errorf("ring kept wrong window: %+v", pts)
	}
}

// TestTimelineScopes checks per-scope filtering, the all=true union,
// Untrack dropping a scope's whole history, and a series the source stops
// emitting leaving at that pass.
func TestTimelineScopes(t *testing.T) {
	live := map[string]float64{"": 1, "g1": 2, "g2": 3}
	tl := NewTimeline(time.Hour, 4, func(emit func(scope, name string, v float64)) {
		for sc, v := range live {
			name := "queries"
			if sc == "" {
				name = "global"
			}
			emit(sc, name, v)
		}
	})
	tl.Sample()

	if got := len(tl.Snapshot("g1", false)); got != 1 {
		t.Errorf("scope g1 series = %d, want 1", got)
	}
	all := tl.Snapshot("", true)
	if len(all) != 3 {
		t.Fatalf("all series = %d, want 3", len(all))
	}
	// Sorted by scope: global ("") first, then g1, g2.
	if all[0].Scope != "" || all[1].Scope != "g1" || all[2].Scope != "g2" {
		t.Errorf("scope order wrong: %+v", all)
	}
	tl.Untrack("g1")
	if got := len(tl.Snapshot("g1", false)); got != 0 {
		t.Errorf("untracked scope still has %d series", got)
	}
	if got := len(tl.Snapshot("", true)); got != 2 {
		t.Errorf("series after untrack = %d, want 2", got)
	}

	delete(live, "g2")
	tl.Sample()
	if got := len(tl.Snapshot("g2", false)); got != 0 {
		t.Errorf("series the source stopped emitting still has %d series", got)
	}
	for _, s := range tl.Snapshot("", true) {
		want := 2 // global kept its history
		if s.Scope == "g1" {
			want = 1 // Untrack dropped the history; the source re-emitted it
		}
		if len(s.Points) != want {
			t.Errorf("%q/%s has %d points, want %d", s.Scope, s.Name, len(s.Points), want)
		}
	}
}

// TestTimelineSampleUntrackNoDeadlock pins the lock order between the
// sampler and a scope's owner. The serving layer's source reads the graph
// registry, whose lock DELETE holds while it calls Untrack; here the
// source waits on a goroutine that calls Untrack. Sample must not hold its
// own lock while the source runs, or the two wait on each other forever.
func TestTimelineSampleUntrackNoDeadlock(t *testing.T) {
	var tl *Timeline
	tl = NewTimeline(time.Hour, 4, func(emit func(scope, name string, v float64)) {
		untracked := make(chan struct{})
		go func() {
			tl.Untrack("g")
			close(untracked)
		}()
		<-untracked
		emit("g", "x", 1)
	})
	sampled := make(chan struct{})
	go func() {
		tl.Sample()
		tl.Sample()
		close(sampled)
	}()
	select {
	case <-sampled:
	case <-time.After(10 * time.Second):
		t.Fatal("Sample deadlocked against an Untrack its source waits on")
	}
	if snap := tl.Snapshot("g", false); len(snap) != 1 || len(snap[0].Points) != 1 {
		t.Errorf("snapshot = %+v, want one series with the last pass's point", snap)
	}
}

// TestTimelineStartStop smoke-tests the background sampler: it actually
// samples, Stop halts it, and both are idempotent and nil-safe.
func TestTimelineStartStop(t *testing.T) {
	tl := NewTimeline(time.Millisecond, 8, func(emit func(scope, name string, v float64)) {
		emit("", "x", 1)
	})
	tl.Start()
	tl.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for {
		if snap := tl.Snapshot("", false); len(snap) == 1 && len(snap[0].Points) > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background sampler never sampled")
		case <-time.After(5 * time.Millisecond):
		}
	}
	tl.Stop()
	tl.Stop() // idempotent
	var nilTL *Timeline
	nilTL.Untrack("")
	nilTL.Sample()
	nilTL.Start()
	nilTL.Stop()
	if nilTL.Snapshot("", true) != nil {
		t.Error("nil timeline should return nil snapshots")
	}
}
