package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run, as written to the trace
// file. Spans of one operation share op; parent names the span of the same
// op that caused this one ("" for the op's root).
type span struct {
	Op     string `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how a block is replayed untraced for the overhead
// measurement.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records [start, start+d) and returns start+d, so consecutive child
// spans can be laid end to end.
func (t *tracer) add(op, name, parent string, start time.Time, d time.Duration) time.Time {
	end := start.Add(d)
	if t != nil {
		t.spans = append(t.spans, span{
			Op: op, Name: name, Parent: parent,
			Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		})
	}
	return end
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover: children are the spans of the same
// op whose parent is this span's name, clipped to the parent's interval and
// merged where they overlap.
func selfTimes(spans []span) []int64 {
	type key struct{ op, parent string }
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[key{s.Op, s.Name}]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName groups the self times (ns) of the spans whose op starts with
// opPrefix by span name.
func selfByName(spans []span, opPrefix string) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		if len(s.Op) >= len(opPrefix) && s.Op[:len(opPrefix)] == opPrefix {
			out[s.Name] = append(out[s.Name], float64(self[i]))
		}
	}
	return out
}
