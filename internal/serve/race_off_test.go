//go:build !race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Puts at random, so pooled-allocation bytes are not stable under it.
const raceEnabled = false
