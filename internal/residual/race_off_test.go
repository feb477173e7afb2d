//go:build !race

package residual

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Puts at random, so pooled-allocation counts are not stable under it.
const raceEnabled = false
