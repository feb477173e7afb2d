package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Timeline is the in-process flight recorder's history layer: a background
// sampler that calls one source function at a fixed interval and keeps the
// last N samples of every series it emits, so trend data (queries/sec,
// resident bytes, overlay fraction, per-graph load) is served by the admin
// timeline endpoint with no external Prometheus.
//
// Series are grouped by scope — "" for process-global series, a graph name
// for per-graph ones. A series the source stops emitting is dropped at that
// pass; Untrack drops a scope's whole history at once, for owners that know
// the scope is gone.

// TimelinePoint is one sample: wall-clock unix milliseconds and the
// series' value at that instant. Counters sample cumulatively; consumers
// difference adjacent points for rates.
type TimelinePoint struct {
	UnixMs int64   `json:"t_ms"`
	Value  float64 `json:"v"`
}

// TimelineSeries is one series' recorded history, oldest point first.
type TimelineSeries struct {
	Scope  string          `json:"graph,omitempty"` // "" = process-global
	Name   string          `json:"name"`
	Points []TimelinePoint `json:"points"`
}

type seriesKey struct{ scope, name string }

// Timeline samples its source every interval, keeping at most samples
// points per series.
type Timeline struct {
	interval time.Duration
	samples  int
	source   func(emit func(scope, name string, v float64))

	mu     sync.Mutex
	series map[seriesKey][]TimelinePoint // oldest point first
	stop   chan struct{}
	done   chan struct{}
}

// Default timeline geometry: 90 samples at 10s covers the last 15 minutes.
const (
	DefaultTimelineInterval = 10 * time.Second
	DefaultTimelineSamples  = 90
)

// NewTimeline builds a collector over source, which is called once per
// sampling pass and emits the current value of every live series
// (interval ≤ 0 or samples ≤ 0 select the defaults). It does not sample
// until Start.
func NewTimeline(interval time.Duration, samples int, source func(emit func(scope, name string, v float64))) *Timeline {
	if interval <= 0 {
		interval = DefaultTimelineInterval
	}
	if samples <= 0 {
		samples = DefaultTimelineSamples
	}
	return &Timeline{
		interval: interval,
		samples:  samples,
		source:   source,
		series:   make(map[seriesKey][]TimelinePoint),
	}
}

// Interval reports the sampling period.
func (t *Timeline) Interval() time.Duration { return t.interval }

// Untrack drops every series (and its history) under scope. Safe on nil.
func (t *Timeline) Untrack(scope string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for k := range t.series {
		if k.scope == scope {
			delete(t.series, k)
		}
	}
	t.mu.Unlock()
}

// Sample takes one synchronous sampling pass. The background loop calls
// this on its ticker; tests call it directly for deterministic histories.
//
// The source runs before t.mu is taken: it reads state behind other locks
// (the serving layer's reads the graph registry), and the owners of those
// locks call Untrack while holding them, so running the source under t.mu
// would take the two locks in both orders and deadlock.
func (t *Timeline) Sample() {
	if t == nil {
		return
	}
	vals := make(map[seriesKey]float64)
	t.source(func(scope, name string, v float64) { vals[seriesKey{scope, name}] = v })
	now := time.Now().UnixMilli()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Rebuild the index from this pass's points, so a series the source
	// no longer emits leaves with the old index.
	series := make(map[seriesKey][]TimelinePoint, len(vals))
	for k, v := range vals {
		hist := append(t.series[k], TimelinePoint{UnixMs: now, Value: v})
		if len(hist) > t.samples {
			hist = hist[len(hist)-t.samples:]
		}
		series[k] = hist
	}
	t.series = series
}

// Start launches the background sampler; Stop ends it. Safe on nil, and
// idempotent while running.
func (t *Timeline) Start() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.stop != nil {
		t.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	t.stop, t.done = stop, done
	t.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(t.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Sample()
			}
		}
	}()
}

// Stop halts the background sampler and waits for it to exit. Safe on nil
// and when not started.
func (t *Timeline) Stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Snapshot returns the recorded history. scope "" with all=false returns
// only the process-global series; all=true returns every scope. Series are
// sorted by (scope, name), each oldest point first. Safe on nil (returns
// nil).
func (t *Timeline) Snapshot(scope string, all bool) []TimelineSeries {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []TimelineSeries
	for k, pts := range t.series {
		if all || k.scope == scope {
			out = append(out, TimelineSeries{
				Scope:  k.scope,
				Name:   k.name,
				Points: append([]TimelinePoint(nil), pts...),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Name < out[j].Name
	})
	return out
}
