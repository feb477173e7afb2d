package graph

import (
	"bytes"
	"strings"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := New(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNew(t *testing.T) {
	g := testGraph(t)
	if g.N != 4 || g.M != 4 {
		t.Errorf("n=%d m=%d", g.N, g.M)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewError(t *testing.T) {
	if _, err := New(2, [][2]int32{{0, 5}}, nil); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestDegreesAndAvg(t *testing.T) {
	g := testGraph(t)
	for i, d := range g.Degrees() {
		if d != 2 {
			t.Errorf("degree[%d]=%v", i, d)
		}
	}
	if g.AvgDegree() != 2 {
		t.Errorf("avg degree %v", g.AvgDegree())
	}
}

func TestNeighbors(t *testing.T) {
	g := testGraph(t)
	nb := g.Neighbors(0)
	if len(nb) != 2 {
		t.Fatalf("neighbors of 0: %v", nb)
	}
	if nb[0] != 1 || nb[1] != 3 {
		t.Errorf("neighbors of 0 = %v, want [1 3]", nb)
	}
}

func TestFromCSR(t *testing.T) {
	w, err := sparse.NewSymmetricFromEdges(3, [][2]int32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := FromCSR(w)
	if g.N != 3 || g.M != 2 {
		t.Errorf("FromCSR n=%d m=%d", g.N, g.M)
	}
}

// TestEdgeCountDistinctPairs: M counts each unordered pair once however
// often and in whichever direction the input lists it, self-loops included
// (a zero-weight one too), and agrees with FromCSR of the same adjacency —
// the count a compaction installs.
func TestEdgeCountDistinctPairs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		upload string
		want   int
	}{
		{"reversed", "0 1\n1 0\n0 1\n1 2\n", 2},
		{"duplicated", "0 1\n0 1\n0 1\n", 1},
		{"weighted duplicate", "0 1 0.5\n1 0 2\n1 2 3\n", 2},
		{"self-loops", "0 0\n0 0\n0 1\n2 2 0\n", 3},
		{"dupWeighted", dupWeighted, 6},
	} {
		g, _, _, err := ParseUpload([]byte(tc.upload), []byte("0 0\n"))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back := FromCSR(g.Adj); g.M != tc.want || back.M != tc.want {
			t.Errorf("%s: New M = %d, FromCSR M = %d, want %d", tc.name, g.M, back.M, tc.want)
		}
	}
}

func TestValidateCatchesNegativeWeight(t *testing.T) {
	g, err := New(2, [][2]int32{{0, 1}}, []float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("expected negative-weight error")
	}
}

func TestComponents(t *testing.T) {
	// Two disjoint edges + an isolated node = 3 components.
	g, err := New(5, [][2]int32{{0, 1}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if ids[0] != ids[1] || ids[2] != ids[3] || ids[0] == ids[2] || ids[4] == ids[0] || ids[4] == ids[2] {
		t.Errorf("component ids wrong: %v", ids)
	}
}

func TestComponentsConnected(t *testing.T) {
	g := testGraph(t) // 4-cycle
	_, count := g.Components()
	if count != 1 {
		t.Errorf("cycle should be one component, got %d", count)
	}
}

func TestUnreachableFrom(t *testing.T) {
	g, err := New(5, [][2]int32{{0, 1}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed := []int{0, -1, -1, -1, -1} // only component {0,1} has a seed
	if got := g.UnreachableFrom(seed); got != 3 {
		t.Errorf("UnreachableFrom = %d, want 3 (nodes 2,3,4)", got)
	}
	all := []int{0, -1, 1, -1, 2}
	if got := g.UnreachableFrom(all); got != 0 {
		t.Errorf("UnreachableFrom = %d, want 0", got)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := New(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}}, []float64{1, 2.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != 4 || back.M != 3 {
		t.Errorf("round trip n=%d m=%d", back.N, back.M)
	}
	if !dense.Equal(back.Adj.ToDense(), g.Adj.ToDense(), 0) {
		t.Error("round trip changed adjacency")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M != 2 {
		t.Errorf("n=%d m=%d", g.N, g.M)
	}
}

func TestReadEdgeListMinN(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 10 {
		t.Errorf("minN not honored: %d", g.N)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",          // too few fields
		"0 1 2 3\n",    // too many fields
		"x 1\n",        // bad id
		"0 y\n",        // bad id
		"-1 2\n",       // negative id
		"0 1 weight\n", // bad weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 0); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := []int{0, -1, 2, 1}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLabels(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		if back[i] != labels[i] {
			t.Errorf("label[%d] = %d, want %d", i, back[i], labels[i])
		}
	}
}

func TestReadLabelsErrors(t *testing.T) {
	cases := []string{
		"0\n",     // too few fields
		"0 1 2\n", // too many fields
		"x 1\n",   // bad node
		"0 y\n",   // bad label
		"99 1\n",  // node out of range
		"0 -2\n",  // negative label
	}
	for _, in := range cases {
		if _, err := ReadLabels(strings.NewReader(in), 4); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}
