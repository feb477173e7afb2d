// Package graph provides the undirected-graph substrate: a thin, validated
// wrapper around the CSR adjacency matrix together with node labels and the
// degree statistics the estimators need.
package graph

import (
	"fmt"

	"factorgraph/internal/sparse"
)

// Graph is an undirected graph with n nodes backed by a symmetric CSR
// adjacency matrix W.
type Graph struct {
	N   int
	M   int // number of distinct undirected edges, self-loops included
	Adj *sparse.CSR

	degrees []float64 // lazily computed weighted degrees
}

// New builds a graph from an undirected edge list. Edges must reference
// nodes in [0, n). A pair listed more than once, in either direction, is
// one edge whose weight is the sum of its listings, and M counts it once:
// New and FromCSR of the same adjacency agree.
func New(n int, edges [][2]int32, weights []float64) (*Graph, error) {
	adj, err := sparse.NewSymmetricFromEdges(n, edges, weights)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return FromCSR(adj), nil
}

// FromCSR wraps an existing symmetric CSR adjacency matrix. Off-diagonal
// entries appear twice and stored diagonal ones once, so M is
// (nnz − diag)/2 + diag.
func FromCSR(adj *sparse.CSR) *Graph {
	diag := adj.DiagCount()
	return &Graph{N: adj.N, M: (adj.NNZ()-diag)/2 + diag, Adj: adj}
}

// Degrees returns the weighted degree of every node (cached).
func (g *Graph) Degrees() []float64 {
	if g.degrees == nil {
		g.degrees = g.Adj.Degrees()
	}
	return g.degrees
}

// AvgDegree returns the average weighted degree 2m/n.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	var s float64
	for _, d := range g.Degrees() {
		s += d
	}
	return s / float64(g.N)
}

// Neighbors returns the neighbor ids of node i (aliasing CSR storage).
func (g *Graph) Neighbors(i int) []int32 {
	if i < 0 || i >= g.N {
		panic(fmt.Sprintf("graph: node %d out of range n=%d", i, g.N))
	}
	return g.Adj.Indices[g.Adj.IndPtr[i]:g.Adj.IndPtr[i+1]]
}

// Components labels each node with a connected-component id (0-based,
// ordered by first-seen node) and returns the component count. Useful as a
// pre-flight diagnostic: label propagation cannot reach components without
// seed labels.
func (g *Graph) Components() (ids []int, count int) {
	ids = make([]int, g.N)
	for i := range ids {
		ids[i] = -1
	}
	var stack []int32
	for start := 0; start < g.N; start++ {
		if ids[start] >= 0 {
			continue
		}
		ids[start] = count
		stack = append(stack[:0], int32(start))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Neighbors(int(u)) {
				if ids[v] < 0 {
					ids[v] = count
					stack = append(stack, v)
				}
			}
		}
		count++
	}
	return ids, count
}

// UnreachableFrom counts nodes in components that contain none of the
// given labeled nodes (label < 0 means unlabeled); those nodes can never
// receive a propagated signal.
func (g *Graph) UnreachableFrom(seed []int) int {
	ids, count := g.Components()
	hasSeed := make([]bool, count)
	for i, l := range seed {
		if l >= 0 {
			hasSeed[ids[i]] = true
		}
	}
	unreachable := 0
	for i := range ids {
		if !hasSeed[ids[i]] {
			unreachable++
		}
	}
	return unreachable
}

// Validate checks structural invariants: symmetry of the adjacency matrix
// and absence of negative weights. It is O(m log d) and intended for tests
// and loaders, not hot paths.
func (g *Graph) Validate() error {
	for i := 0; i < g.N; i++ {
		for p := g.Adj.IndPtr[i]; p < g.Adj.IndPtr[i+1]; p++ {
			j := int(g.Adj.Indices[p])
			w := 1.0
			if g.Adj.Data != nil {
				w = g.Adj.Data[p]
			}
			if w < 0 {
				return fmt.Errorf("graph: negative weight %v on edge (%d,%d)", w, i, j)
			}
			if g.Adj.At(j, i) != w {
				return fmt.Errorf("graph: asymmetry at (%d,%d): %v vs %v", i, j, w, g.Adj.At(j, i))
			}
		}
	}
	return nil
}
