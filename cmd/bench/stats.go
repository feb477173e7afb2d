package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is the sample-count guard: a tail percentile is only
// reported when at least this many samples lie beyond its rank. Below that
// it is a handful of outliers, not a property of the distribution.
const minBeyondTail = 10

// tailPercentile is the one percentile main_tail_ms is read at, in every
// block (see phase.go), whatever the sample count. On the shared reference
// host a p99 measures the neighbours: over ten runs of one commit
// serve_read's p99 (of 120 000 samples) spread 25 % of its median and its
// p90 5 %.
const tailPercentile = 90

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice. Nearest-rank returns a value that was measured, never an
// interpolation between two.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median of an unsorted slice.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// p50Of is the median of one block's ascending samples, or an error when
// there are fewer than minSideSamples.
func p50Of(asc []float64) (float64, error) {
	if len(asc) < minSideSamples {
		return math.NaN(), fmt.Errorf("median of %d samples (need ≥ %d)", len(asc), minSideSamples)
	}
	return percentile(asc, 50), nil
}

// tailOf is the tail of one block's ascending samples: the
// tailPercentile-th percentile, or an error when fewer than minBeyondTail
// samples would lie beyond it.
func tailOf(asc []float64) (float64, error) {
	rank := int(math.Ceil(tailPercentile / 100.0 * float64(len(asc))))
	if beyond := len(asc) - rank; beyond < minBeyondTail {
		return math.NaN(), fmt.Errorf("p%d of %d samples leaves %d beyond it (need ≥ %d)", tailPercentile, len(asc), beyond, minBeyondTail)
	}
	return percentile(asc, tailPercentile), nil
}

// spread is the calibration statistic the driver applies: the interquartile
// distance of the values as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method) so calibration here and in the driver agree.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	at := func(j int) float64 { // j-th of 4 cut points
		pos := float64(j*(n+1)) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			lo, frac = 1, 0
		}
		if lo >= n {
			lo, frac = n-1, 1
		}
		return asc[lo-1] + frac*(asc[lo]-asc[lo-1])
	}
	return at(1), at(3)
}
