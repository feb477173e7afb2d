package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// LoadFiles reads an edge-list file (TSV "u\tv[\tw]") and a labels file
// ("node\tlabel") into a graph and a length-n label vector; the shared
// loader behind both the one-shot CLI and the serving binary.
func LoadFiles(edgesPath, labelsPath string) (*Graph, []int, error) {
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, nil, err
	}
	defer ef.Close()
	g, err := ReadEdgeList(ef, 0)
	if err != nil {
		return nil, nil, err
	}
	lf, err := os.Open(labelsPath)
	if err != nil {
		return nil, nil, err
	}
	defer lf.Close()
	labels, err := ReadLabels(lf, g.N)
	if err != nil {
		return nil, nil, err
	}
	return g, labels, nil
}

// WriteEdgeList writes the graph as a TSV edge list: one "u\tv[\tw]" line
// per undirected edge (u ≤ v). Weights are written only when non-unit.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	adj := g.Adj
	for i := 0; i < g.N; i++ {
		for p := adj.IndPtr[i]; p < adj.IndPtr[i+1]; p++ {
			j := int(adj.Indices[p])
			if j < i {
				continue // emit each undirected edge once
			}
			wt := 1.0
			if adj.Data != nil {
				wt = adj.Data[p]
			}
			var err error
			if wt == 1 {
				_, err = fmt.Fprintf(bw, "%d\t%d\n", i, j)
			} else {
				_, err = fmt.Fprintf(bw, "%d\t%d\t%g\n", i, j, wt)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MaxWeight is the largest edge weight any loader or mutation accepts. With
// at most 2³¹ stored entries it keeps (Σw)⁵·n below MaxFloat64, so neither
// the norm behind ρ(W) nor a path sketch of length ≤ 5 can overflow.
const MaxWeight = 1e30

// ValidWeight is the one rule for an edge weight arriving from outside the
// program: finite, non-negative and at most MaxWeight. Written so NaN fails
// too: every comparison against NaN is false.
func ValidWeight(w float64) bool { return w >= 0 && w <= MaxWeight }

// ReadEdgeList parses a TSV/whitespace edge list. Lines starting with '#'
// and blank lines are skipped. Node ids must be non-negative and weights
// must satisfy ValidWeight; n is inferred as max id + 1 unless minN is
// larger.
func ReadEdgeList(r io.Reader, minN int) (*Graph, error) {
	edges, weights, n, err := scanEdgeList(r)
	if err != nil {
		return nil, err
	}
	if minN > n {
		n = minN
	}
	return New(n, edges, weights)
}

// scanEdgeList parses an edge list into New's arguments without building
// anything n-sized: n is max id + 1, weights is nil for an unweighted list.
func scanEdgeList(r io.Reader) (edges [][2]int32, weights []float64, n int, err error) {
	weighted := false
	maxID := int32(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, nil, 0, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("graph: line %d: bad node id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("graph: line %d: bad node id %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, nil, 0, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		wt := 1.0
		if len(fields) == 3 {
			wt, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("graph: line %d: bad weight %q: %w", lineNo, fields[2], err)
			}
			if !ValidWeight(wt) {
				return nil, nil, 0, fmt.Errorf("graph: line %d: invalid edge weight %v (want a finite value in [0, %g])", lineNo, wt, MaxWeight)
			}
			weighted = true
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		weights = append(weights, wt)
		if int32(u) > maxID {
			maxID = int32(u)
		}
		if int32(v) > maxID {
			maxID = int32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, 0, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if !weighted {
		weights = nil
	}
	return edges, weights, int(maxID) + 1, nil
}

// WriteLabels writes node labels as "node\tlabel" lines, skipping
// unlabeled (-1) entries.
func WriteLabels(w io.Writer, labels []int) error {
	bw := bufio.NewWriter(w)
	for i, l := range labels {
		if l < 0 {
			continue
		}
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", i, l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLabels parses "node\tlabel" lines into a length-n label slice with -1
// for unlabeled nodes.
func ReadLabels(r io.Reader, n int) ([]int, error) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: labels line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: labels line %d: bad node %q: %w", lineNo, fields[0], err)
		}
		lab, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: labels line %d: bad label %q: %w", lineNo, fields[1], err)
		}
		if node < 0 || node >= n {
			return nil, fmt.Errorf("graph: labels line %d: node %d out of range n=%d", lineNo, node, n)
		}
		if lab < 0 {
			return nil, fmt.Errorf("graph: labels line %d: negative label %d", lineNo, lab)
		}
		labels[node] = lab
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading labels: %w", err)
	}
	return labels, nil
}
