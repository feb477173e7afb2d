//go:build race

package factorgraph

const raceEnabled = true
