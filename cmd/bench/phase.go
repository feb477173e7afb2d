package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// A measured phase runs as a sequence of equal blocks of fixed work, and
// every timing metric is read from the phase's quietest block: the lowest
// block median, the lowest block p90, the highest block rate. The reference
// host is a shared machine whose neighbours only ever add time, in bursts
// of seconds to a minute: over ten runs of one commit the whole-run medians
// spread 30–40 % of their median and the whole-run p90s more, while the
// floor under the bursts did not move. A slower program is slower in every
// block, its quietest one too; a burst lands in some blocks and not others.
// What the quietest block cannot show is a cost the program itself pays in
// some blocks only, so a block holds many times the period of anything
// periodic in the program (a garbage collection, a compaction).

// minSideSamples is the fewest samples a block may report a median of.
const minSideSamples = 10

// timed is one measured operation.
type timed struct {
	ms float64 // wall latency
	ok bool    // it succeeded and passed its check
}

// phase is one measured closed-loop phase over fixed work lists.
type phase struct {
	load
	ops     [][]timed   // per client, in issue order
	starts  []time.Time // per block
	blockS  []float64   // per block: seconds from its start until its last client finished
	elapsed time.Duration
}

// runPhase issues l.ops() operations from each of clients clients — op(c, i)
// for i in order, the next leaving only when the previous returned — in
// l.blocks blocks, with all clients running each block concurrently and
// meeting at its end. op returns false when the operation failed or its
// reply failed its check. prepare, when not nil, runs before each op outside
// its timing (but inside the block's: it must be cheap beside the op).
func runPhase(l load, clients int, op func(client, i int) bool, prepare func(client, i int)) *phase {
	p := &phase{load: l, ops: make([][]timed, clients)}
	for c := range p.ops {
		p.ops[c] = make([]timed, l.ops())
	}
	begin := time.Now()
	for b := 0; b < l.blocks; b++ {
		start := time.Now()
		var wg sync.WaitGroup
		for c := range p.ops {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := b * l.perBlock; i < (b+1)*l.perBlock; i++ {
					if prepare != nil {
						prepare(c, i)
					}
					t0 := time.Now()
					ok := op(c, i)
					p.ops[c][i] = timed{ms: ms(time.Since(t0)), ok: ok}
				}
			}(c)
		}
		wg.Wait()
		p.starts = append(p.starts, start)
		p.blockS = append(p.blockS, time.Since(start).Seconds())
	}
	p.elapsed = time.Since(begin)
	return p
}

// latencies returns, per block, the latencies of the successful ops selected
// by keep (nil keeps all).
func (p *phase) latencies(keep func(client, i int) bool) [][]float64 {
	out := make([][]float64, p.blocks)
	for c, ops := range p.ops {
		for i, o := range ops {
			if o.ok && (keep == nil || keep(c, i)) {
				out[i/p.perBlock] = append(out[i/p.perBlock], o.ms)
			}
		}
	}
	return out
}

// blockOf is the block that was running at t, or -1.
func (p *phase) blockOf(t time.Time) int {
	for b, start := range p.starts {
		if s := t.Sub(start).Seconds(); s >= 0 && s < p.blockS[b] {
			return b
		}
	}
	return -1
}

// bestRate is the throughput metric: per block, the successful ops keep
// selects (nil: all) ÷ the block's seconds; the highest over the blocks.
func (p *phase) bestRate(keep func(client, i int) bool) float64 {
	best := 0.0
	for b, lat := range p.latencies(keep) {
		best = max(best, float64(len(lat))/p.blockS[b])
	}
	return best
}

// quietest is the lowest value stat takes over the blocks. It fails when
// any block has too few samples for stat: the blocks are equal work, and a
// short one means operations failed.
func quietest(blocks [][]float64, stat func(asc []float64) (float64, error)) (float64, error) {
	best := math.Inf(1)
	for b, lat := range blocks {
		v, err := stat(sorted(lat))
		if err != nil {
			return math.NaN(), fmt.Errorf("block %d of %d: %w", b+1, len(blocks), err)
		}
		best = min(best, v)
	}
	return best, nil
}

// samples counts the blocks' samples.
func samples(blocks [][]float64) int {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	return n
}
