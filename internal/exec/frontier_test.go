package exec

import (
	"math/rand"
	"testing"
)

// TestFrontierOrdering: with no staleness, PopMax drains strictly by
// descending enqueue-time norm and each admitted node comes out exactly
// once.
func TestFrontierOrdering(t *testing.T) {
	f := NewFrontier(0.5, 0)
	norms := map[int32]float64{1: 3, 2: 9, 3: 1, 4: 7}
	for node, norm := range norms {
		f.Add(node, norm)
	}
	f.Add(5, 0.5) // at tolerance: not admitted
	f.Add(2, 99)  // duplicate: ignored (first enqueue wins)
	if f.Len() != 4 {
		t.Fatalf("len = %d, want 4", f.Len())
	}
	want := []int32{2, 4, 1, 3}
	for i, wantNode := range want {
		node, ok := f.PopMax()
		if !ok || node != wantNode {
			t.Fatalf("pop %d = (%d, %v), want %d", i, node, ok, wantNode)
		}
	}
	if _, ok := f.PopMax(); ok {
		t.Error("pop on empty frontier succeeded")
	}
}

// TestFrontierPromoteDemote is the tier property test: random add/pop
// interleavings must (a) keep Len equal to the distinct queued set and
// never surface an unqueued node, (b) signal promotion exactly when the
// threshold is reached (the caller then moves to its dense tier and the
// norm table becomes the source of truth), and (c) come back empty and
// usable from Reset — the demotion step.
func TestFrontierPromoteDemote(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		promoteAt := 4 + rng.Intn(60)
		f := NewFrontier(0, promoteAt)
		queued := map[int32]bool{}
		promoted := false
		for op := 0; op < 500 && !promoted; op++ {
			if rng.Float64() < 0.7 {
				node := int32(rng.Intn(200))
				f.Add(node, rng.Float64()+0.01)
				queued[node] = true
			} else if len(queued) > 0 {
				node, ok := f.PopMax()
				if !ok {
					t.Fatalf("trial %d: queued=%d but PopMax empty", trial, len(queued))
				}
				if !queued[node] {
					t.Fatalf("trial %d: popped %d which was not queued", trial, node)
				}
				delete(queued, node)
			}
			if f.Len() != len(queued) {
				t.Fatalf("trial %d: Len=%d, queued=%d", trial, f.Len(), len(queued))
			}
			if f.ShouldPromote() {
				if len(queued) < promoteAt {
					t.Fatalf("trial %d: promotion signalled at %d < threshold %d", trial, len(queued), promoteAt)
				}
				promoted = true
			} else if len(queued) >= promoteAt {
				t.Fatalf("trial %d: %d ≥ threshold %d without promotion signal", trial, len(queued), promoteAt)
			}
		}
		f.Reset()
		if f.Len() != 0 {
			t.Fatalf("trial %d: Reset left len=%d", trial, f.Len())
		}
		if f.ShouldPromote() {
			t.Fatalf("trial %d: empty frontier signals promotion", trial)
		}
		f.Add(7, 1)
		if f.Len() != 1 {
			t.Fatalf("trial %d: frontier unusable after Reset", trial)
		}
	}
}

// TestFrontierNoPromotion: promoteAt <= 0 never promotes.
func TestFrontierNoPromotion(t *testing.T) {
	f := NewFrontier(0, 0)
	for i := int32(0); i < 10000; i++ {
		f.Add(i, 1)
	}
	if f.ShouldPromote() {
		t.Error("promoteAt=0 frontier wants promotion")
	}
}
