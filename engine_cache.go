package factorgraph

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// overlayCacheCap bounds the what-if cache at this many memoized frontiers
// per engine. Interactive what-if exploration replays a handful of seed
// sets; 64 covers that with a worst case of 64×overlayCacheMaxRows cloned
// rows, far below one belief matrix on any graph worth caching for.
const overlayCacheCap = 64

// overlayCacheMaxRows is the most rows a what-if session may hold for it
// to be memoized — a sparse session's frontier, or a promoted session's
// whole private matrix on a graph this small: beyond it the rows stop being
// "a frontier" and start being a belief matrix worth of memory per entry.
const overlayCacheMaxRows = 8192

// overlayCacheEntry is one memoized what-if: the session's private belief
// rows plus the flush work that produced them, pinned to the engine
// generation they were computed at.
type overlayCacheEntry struct {
	key    string
	gen    int64
	rows   map[int32][]float64
	pushed int
	edges  int
}

// overlayCache is a small LRU keyed by the canonical extra-seed set.
// Entries carry the engine generation they were computed at; lookups at any
// other generation delete lazily, so every seed patch or H change
// invalidates the whole cache without a scan. The zero value is ready to
// use.
type overlayCache struct {
	mu      sync.Mutex
	lru     list.List // of *overlayCacheEntry, front = most recent
	entries map[string]*list.Element
}

// get returns the entry for key if it was computed at gen, refreshing its
// LRU position; stale entries are dropped on sight.
func (c *overlayCache) get(key string, gen int64) *overlayCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	ent := el.Value.(*overlayCacheEntry)
	if ent.gen != gen {
		c.lru.Remove(el)
		delete(c.entries, key)
		return nil
	}
	c.lru.MoveToFront(el)
	return ent
}

// put installs (or replaces) an entry, evicting the least recently used
// one past capacity.
func (c *overlayCache) put(ent *overlayCacheEntry) {
	if len(ent.rows) > overlayCacheMaxRows {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
	}
	if el, ok := c.entries[ent.key]; ok {
		el.Value = ent
		c.lru.MoveToFront(el)
		return
	}
	c.entries[ent.key] = c.lru.PushFront(ent)
	for c.lru.Len() > overlayCacheCap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*overlayCacheEntry).key)
	}
}

// purge empties the cache (Close calls it to release the cloned rows).
func (c *overlayCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = nil
}

// len reports the entry count (tests).
func (c *overlayCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// overlayCacheKey canonicalizes an extra-seed set: sorted "node:class"
// pairs, so map iteration order cannot split identical what-ifs across
// cache entries.
func overlayCacheKey(extra map[int]int) string {
	var b strings.Builder
	for _, node := range sortedNodes(extra) {
		b.WriteString(strconv.Itoa(node))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(extra[node]))
		b.WriteByte(';')
	}
	return b.String()
}

// sortedNodes returns a node → class map's nodes in ascending order, the
// order seed deltas are queued in: equal-norm deltas then enter the push
// heap alike on every run, so one request sequence gives one set of beliefs.
func sortedNodes(m map[int]int) []int {
	nodes := make([]int, 0, len(m))
	for node := range m {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	return nodes
}
