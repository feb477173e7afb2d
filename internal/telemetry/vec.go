package telemetry

import (
	"container/list"
	"sync"
)

// This file adds the one controlled exception to the package's
// "no dynamic labeling" rule: a Vec is a metric family with a single
// dynamic label (in practice `graph`) whose values are resolved to
// pre-registered handles through a small lock-guarded LRU. The hot path
// after resolution is still a bare atomic on the returned handle; the
// resolution itself is one mutex and one map lookup, paid once per
// request, not per increment. Cardinality is bounded: when more than
// `limit` distinct label values are live, the least-recently-used value's
// series is unregistered from the exposition (the registry forgets it;
// a stale handle keeps working but is no longer exported). Owners that
// know a value's lifetime (the graph registry) call Delete eagerly on
// eviction instead of waiting for LRU pressure.

// DefaultVecCardinality bounds the number of live dynamic-label values a
// Vec tracks before LRU-releasing the coldest. It is sized well above the
// graph counts a single process serves under a sane memory budget, so in
// practice eager Delete — not LRU pressure — is what releases series.
const DefaultVecCardinality = 256

// Vec is a metric family with one dynamic label, resolving each label
// value to a registered handle of type H: value → handle with
// LRU-bounded cardinality. The aliases below name its four instances.
type Vec[H any] struct {
	reg    *Registry
	name   string
	label  string
	limit  int
	series func(*Registry, Labels) H // registers one labeled series

	mu      sync.Mutex
	entries map[string]*list.Element // value → element in lru
	lru     *list.List               // front = most recently used
}

type vecEntry[H any] struct {
	value  string
	handle H
}

type (
	// CounterVec is a counter family with one dynamic label.
	CounterVec = Vec[*Counter]
	// FloatCounterVec is a float counter family with one dynamic label —
	// seconds-valued per-graph cost accumulation.
	FloatCounterVec = Vec[*FloatCounter]
	// GaugeVec is a gauge family with one dynamic label.
	GaugeVec = Vec[*Gauge]
	// HistogramVec is a histogram family with one dynamic label; all
	// series share one set of bucket bounds.
	HistogramVec = Vec[*Histogram]
)

func newVec[H any](reg *Registry, name, label string, limit int, series func(*Registry, Labels) H) *Vec[H] {
	if reg == nil {
		reg = Default()
	}
	if limit <= 0 {
		limit = DefaultVecCardinality
	}
	return &Vec[H]{
		reg:     reg,
		name:    name,
		label:   label,
		limit:   limit,
		series:  series,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// NewCounterVec registers a counter family on reg (nil = Default()) whose
// series carry label={value}; at most limit (≤0 = DefaultVecCardinality)
// distinct values are live at once.
func NewCounterVec(reg *Registry, name, help, label string, limit int) *CounterVec {
	return newVec(reg, name, label, limit, func(r *Registry, l Labels) *Counter { return r.Counter(name, help, l) })
}

// NewFloatCounterVec registers a float counter family on reg (nil =
// Default()) whose series carry label={value}; at most limit (≤0 =
// DefaultVecCardinality) distinct values are live at once.
func NewFloatCounterVec(reg *Registry, name, help, label string, limit int) *FloatCounterVec {
	return newVec(reg, name, label, limit, func(r *Registry, l Labels) *FloatCounter { return r.FloatCounter(name, help, l) })
}

// NewGaugeVec registers a gauge family on reg (nil = Default()) whose
// series carry label={value}; at most limit (≤0 = DefaultVecCardinality)
// distinct values are live at once.
func NewGaugeVec(reg *Registry, name, help, label string, limit int) *GaugeVec {
	return newVec(reg, name, label, limit, func(r *Registry, l Labels) *Gauge { return r.Gauge(name, help, l) })
}

// NewHistogramVec registers a histogram family on reg (nil = Default())
// with the given bounds (nil = DefBuckets) whose series carry
// label={value}; at most limit (≤0 = DefaultVecCardinality) distinct
// values are live at once.
func NewHistogramVec(reg *Registry, name, help, label string, bounds []float64, limit int) *HistogramVec {
	return newVec(reg, name, label, limit, func(r *Registry, l Labels) *Histogram { return r.Histogram(name, help, bounds, l) })
}

// With returns value's handle, registering its series (and LRU-evicting
// the coldest value past the limit) on first use.
func (v *Vec[H]) With(value string) H {
	v.mu.Lock()
	defer v.mu.Unlock()
	if el, ok := v.entries[value]; ok {
		v.lru.MoveToFront(el)
		return el.Value.(*vecEntry[H]).handle
	}
	h := v.series(v.reg, Labels{v.label: value})
	v.entries[value] = v.lru.PushFront(&vecEntry[H]{value: value, handle: h})
	for len(v.entries) > v.limit {
		back := v.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*vecEntry[H])
		v.lru.Remove(back)
		delete(v.entries, ev.value)
		v.reg.RemoveSeries(v.name, Labels{v.label: ev.value})
	}
	return h
}

// Delete releases value's series from the vector and the registry (call
// when the labeled object dies).
func (v *Vec[H]) Delete(value string) {
	v.mu.Lock()
	el, ok := v.entries[value]
	if ok {
		v.lru.Remove(el)
		delete(v.entries, value)
	}
	v.mu.Unlock()
	if ok {
		v.reg.RemoveSeries(v.name, Labels{v.label: value})
	}
}

// Len reports the number of live label values.
func (v *Vec[H]) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.entries)
}

// Each calls fn for every live (value, handle) pair, iterating over a
// snapshot taken under the lock so fn runs unlocked. Crucially it does NOT
// resolve: reading a report through Each never creates or resurrects a
// series for a value that was deleted.
func (v *Vec[H]) Each(fn func(value string, h H)) {
	v.mu.Lock()
	snap := make([]*vecEntry[H], 0, len(v.entries))
	for el := v.lru.Front(); el != nil; el = el.Next() {
		snap = append(snap, el.Value.(*vecEntry[H]))
	}
	v.mu.Unlock()
	for _, e := range snap {
		fn(e.value, e.handle)
	}
}
