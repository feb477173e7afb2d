// Package labels handles node label vectors, the explicit-belief matrix X,
// and the stratified seed sampling used by every experiment in the paper
// (Section 5, "Quality assessment").
package labels

import (
	"fmt"
	"math/rand/v2"

	"factorgraph/internal/dense"
)

// Unlabeled marks a node without a known class in a label vector.
const Unlabeled = -1

// NumClasses returns 1 + the maximum label, ignoring unlabeled entries.
func NumClasses(labels []int) int {
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	return k
}

// Matrix builds the n×k explicit-belief matrix X: X[i][c] = 1 iff node i is
// labeled c; unlabeled nodes have an all-zero row (paper Section 2.1).
func Matrix(labels []int, k int) (*dense.Matrix, error) {
	x := dense.New(len(labels), k)
	if err := MatrixInto(x, labels); err != nil {
		return nil, err
	}
	return x, nil
}

// MatrixInto is Matrix written over x, a len(labels)×k matrix of any
// contents.
func MatrixInto(x *dense.Matrix, labels []int) error {
	if x.Rows != len(labels) {
		return fmt.Errorf("labels: %d labels for a %d-row matrix", len(labels), x.Rows)
	}
	clear(x.Data)
	for i, l := range labels {
		if l == Unlabeled {
			continue
		}
		if l < 0 || l >= x.Cols {
			return fmt.Errorf("labels: node %d has label %d outside [0,%d)", i, l, x.Cols)
		}
		x.Data[i*x.Cols+l] = 1
	}
	return nil
}

// Counts returns the number of labeled nodes per class.
func Counts(labels []int, k int) []int {
	c := make([]int, k)
	for _, l := range labels {
		if l >= 0 && l < k {
			c[l]++
		}
	}
	return c
}

// NumLabeled returns the number of labeled entries.
func NumLabeled(labels []int) int {
	n := 0
	for _, l := range labels {
		if l != Unlabeled {
			n++
		}
	}
	return n
}

// SampleStratified returns a copy of truth where only a stratified random
// fraction f of nodes stays labeled: classes are sampled in proportion to
// their frequencies, with at least one seed per non-empty class so that
// estimation is well-posed (mirrors the paper's stratified sampling).
func SampleStratified(truth []int, k int, f float64, rng *rand.Rand) ([]int, error) {
	if f < 0 || f > 1 {
		return nil, fmt.Errorf("labels: fraction f=%v outside [0,1]", f)
	}
	byClass := make([][]int, k)
	for i, l := range truth {
		if l == Unlabeled {
			continue
		}
		if l < 0 || l >= k {
			return nil, fmt.Errorf("labels: node %d has label %d outside [0,%d)", i, l, k)
		}
		byClass[l] = append(byClass[l], i)
	}
	out := make([]int, len(truth))
	for i := range out {
		out[i] = Unlabeled
	}
	for c, nodes := range byClass {
		if len(nodes) == 0 {
			continue
		}
		want := int(f*float64(len(nodes)) + 0.5)
		if want < 1 {
			want = 1
		}
		if want > len(nodes) {
			want = len(nodes)
		}
		// Partial Fisher–Yates: choose `want` nodes uniformly.
		perm := make([]int, len(nodes))
		copy(perm, nodes)
		for i := 0; i < want; i++ {
			j := i + rng.IntN(len(perm)-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for _, node := range perm[:want] {
			out[node] = c
		}
	}
	return out, nil
}

// SplitSeedHoldout partitions the labeled nodes of seeds into two disjoint
// label vectors: a seed set with fraction seedFrac of the labeled nodes
// (stratified per class) and a holdout set with the rest. Used by the
// Holdout baseline (Section 4.1).
func SplitSeedHoldout(seeds []int, k int, seedFrac float64, rng *rand.Rand) (seed, holdout []int, err error) {
	if seedFrac <= 0 || seedFrac >= 1 {
		return nil, nil, fmt.Errorf("labels: seedFrac=%v outside (0,1)", seedFrac)
	}
	seed = make([]int, len(seeds))
	holdout = make([]int, len(seeds))
	for i := range seed {
		seed[i] = Unlabeled
		holdout[i] = Unlabeled
	}
	byClass := make([][]int, k)
	for i, l := range seeds {
		if l == Unlabeled {
			continue
		}
		if l < 0 || l >= k {
			return nil, nil, fmt.Errorf("labels: node %d has label %d outside [0,%d)", i, l, k)
		}
		byClass[l] = append(byClass[l], i)
	}
	// Classes with a single labeled node cannot be split; alternate them
	// between seed and holdout so extremely sparse regimes (one seed per
	// class) still yield a non-empty holdout set.
	singletonToSeed := true
	for c, nodes := range byClass {
		if len(nodes) == 0 {
			continue
		}
		if len(nodes) == 1 {
			if singletonToSeed {
				seed[nodes[0]] = c
			} else {
				holdout[nodes[0]] = c
			}
			singletonToSeed = !singletonToSeed
			continue
		}
		perm := make([]int, len(nodes))
		copy(perm, nodes)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		cut := int(seedFrac * float64(len(perm)))
		if cut < 1 {
			cut = 1
		}
		if cut >= len(perm) {
			cut = len(perm) - 1
		}
		for _, node := range perm[:cut] {
			seed[node] = c
		}
		for _, node := range perm[cut:] {
			holdout[node] = c
		}
	}
	return seed, holdout, nil
}
