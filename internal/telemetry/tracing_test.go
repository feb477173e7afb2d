package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	for _, sampled := range []bool{true, false} {
		h := Traceparent(tid, sid, sampled)
		if len(h) != 55 {
			t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
		}
		gtid, gsid, gsampled, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) not ok", h)
		}
		if gtid != tid || gsid != sid || gsampled != sampled {
			t.Errorf("round trip %q: got (%s, %s, %v), want (%s, %s, %v)",
				h, gtid, gsid, gsampled, tid, sid, sampled)
		}
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	valid := Traceparent(NewTraceID(), NewSpanID(), true)
	bad := []string{
		"",
		"00",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // unknown version
		"zz" + valid[2:],                    // non-hex version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + valid[35:],      // all-zero trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // all-zero parent id
		valid[:3] + "g" + valid[4:],                       // non-hex trace id
		valid[:53] + "gg",                                 // non-hex flags
		// Uppercase hex anywhere: W3C Trace Context allows lowercase only.
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A",
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
}

// FuzzTraceparent: parsing never panics, and whatever it accepts renders
// back byte for byte up to the flags, which re-render as 00 or 01.
func FuzzTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, parent, sampled, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if got := Traceparent(tid, parent, sampled); got[:53] != h[:53] {
			t.Fatalf("ParseTraceparent(%q) re-renders as %q", h, got)
		}
	})
}

func TestSamplerDeterministicAndBounded(t *testing.T) {
	if s := NewSampler(0); s.Sample(NewTraceID()) {
		t.Error("rate-0 sampler kept a trace")
	}
	if s := NewSampler(1); !s.Sample(NewTraceID()) {
		t.Error("rate-1 sampler dropped a trace")
	}
	if s := NewSampler(-0.5); s.Sample(NewTraceID()) {
		t.Error("negative-rate sampler kept a trace")
	}

	// Deterministic: the same id always gets the same verdict, so every
	// process in a shared deployment agrees without coordination.
	s := NewSampler(0.5)
	ids := make([]TraceID, 200)
	kept := 0
	for i := range ids {
		ids[i] = NewTraceID()
		if s.Sample(ids[i]) {
			kept++
		}
	}
	for _, id := range ids {
		if s.Sample(id) != s.Sample(id) {
			t.Fatalf("sampler verdict for %s is unstable", id)
		}
	}
	// At rate 0.5 over 200 uniform ids, 40..160 kept is > 12 sigma.
	if kept < 40 || kept > 160 {
		t.Errorf("rate-0.5 sampler kept %d/200", kept)
	}
}

func TestTraceStoreEvictionAndLookup(t *testing.T) {
	s := NewTraceStore(4)
	if s.Capacity() != 4 {
		t.Fatalf("Capacity() = %d, want 4", s.Capacity())
	}
	ids := make([]TraceID, 6)
	for i := range ids {
		ids[i] = NewTraceID()
		s.Put(StoredTrace{ID: ids[i], Kind: fmt.Sprintf("t%d", i)})
	}
	if s.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", s.Len())
	}
	// The two oldest were evicted; their ids no longer resolve.
	for _, id := range ids[:2] {
		if _, ok := s.Get(id); ok {
			t.Errorf("evicted trace %s still resolves", id)
		}
	}
	for i, id := range ids[2:] {
		st, ok := s.Get(id)
		if !ok {
			t.Fatalf("retained trace %s does not resolve", id)
		}
		if want := fmt.Sprintf("t%d", i+2); st.Kind != want {
			t.Errorf("Get(%s).Kind = %q, want %q", id, st.Kind, want)
		}
	}
	// Snapshot is newest first.
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot() has %d traces, want 4", len(snap))
	}
	for i, st := range snap {
		if want := ids[5-i]; st.ID != want {
			t.Errorf("Snapshot[%d].ID = %s, want %s", i, st.ID, want)
		}
	}
}

// TestTraceStoreReputSameID pins the eviction guard: when a trace id is
// stored twice (retry with the same traceparent), evicting the older copy
// must not delete the newer copy's index entry.
func TestTraceStoreReputSameID(t *testing.T) {
	s := NewTraceStore(2)
	id := NewTraceID()
	s.Put(StoredTrace{ID: id, Kind: "old"})
	s.Put(StoredTrace{ID: id, Kind: "new"}) // same id, newer slot
	s.Put(StoredTrace{ID: NewTraceID()})    // evicts the "old" slot
	st, ok := s.Get(id)
	if !ok {
		t.Fatal("re-put id no longer resolves after evicting its older copy")
	}
	if st.Kind != "new" {
		t.Errorf("Get resolved the %q copy, want \"new\"", st.Kind)
	}
}

func TestTraceSpanNesting(t *testing.T) {
	tr := NewTrace()
	endOuter := tr.Start("outer")
	endInner := tr.Start("inner")
	tr.Start("leaf").End()
	endInner.End()
	endOuter.End()
	tr.Start("after").End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		if sp.ID.IsZero() {
			t.Errorf("span %q has a zero id", sp.Name)
		}
		byName[sp.Name] = sp
	}
	root := tr.RootSpanID()
	if byName["outer"].Parent != root {
		t.Errorf("outer.Parent = %s, want root %s", byName["outer"].Parent, root)
	}
	if byName["inner"].Parent != byName["outer"].ID {
		t.Errorf("inner.Parent = %s, want outer %s", byName["inner"].Parent, byName["outer"].ID)
	}
	if byName["leaf"].Parent != byName["inner"].ID {
		t.Errorf("leaf.Parent = %s, want inner %s", byName["leaf"].Parent, byName["inner"].ID)
	}
	if byName["after"].Parent != root {
		t.Errorf("after.Parent = %s, want root %s (all explicit spans closed)", byName["after"].Parent, root)
	}
}

func TestStartSpanDeferredNameAndDiscard(t *testing.T) {
	tr := NewTrace()
	tr.Start("").EndAs("decided_late")
	tr.Start("").EndAs("") // the stage turned out not to happen
	tr.Start("after").End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (discarded span must not record): %+v", len(spans), spans)
	}
	if spans[0].Name != "decided_late" {
		t.Errorf("spans[0].Name = %q", spans[0].Name)
	}
	// The discarded span must also pop the cursor: "after" parents onto the
	// root, not onto a ghost.
	if spans[1].Parent != tr.RootSpanID() {
		t.Errorf("after.Parent = %s, want root %s", spans[1].Parent, tr.RootSpanID())
	}
}

func TestTraceCostAccumulation(t *testing.T) {
	var nilTrace *Trace
	nilTrace.AddWork(1, 2, 3) // must not panic
	nilTrace.AddWait(1, 2)
	if c := nilTrace.Cost(); c != (Cost{}) {
		t.Errorf("nil trace Cost() = %+v, want zero", c)
	}

	tr := NewTrace()
	tr.AddWork(10, 200, 3)
	tr.AddWork(5, 100, 0)
	tr.AddWait(0.25, 0.5)
	got := tr.Cost()
	want := Cost{Pushes: 15, EdgesTraversed: 300, RowsCloned: 3, FlushSeconds: 0.25, LockWaitSeconds: 0.5}
	if got != want {
		t.Errorf("Cost() = %+v, want %+v", got, want)
	}
}

func TestNewRequestTraceDisabled(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	if tr := NewRequestTrace(NewTraceID(), SpanID{}, false, true); tr != nil {
		t.Error("NewRequestTrace should be nil while telemetry is disabled")
	}
}

func TestRequestTraceCarriesContext(t *testing.T) {
	tid := NewTraceID()
	parent := NewSpanID()
	tr := NewRequestTrace(tid, parent, true, true)
	if tr.TraceID() != tid {
		t.Errorf("TraceID() = %s, want %s", tr.TraceID(), tid)
	}
	if tr.RemoteParent() != parent {
		t.Errorf("RemoteParent() = %s, want %s", tr.RemoteParent(), parent)
	}
	if !tr.RemoteSampled() || !tr.Sampled() {
		t.Error("sampled flags lost")
	}
	if tr.RootSpanID().IsZero() {
		t.Error("root span id is zero")
	}
}
