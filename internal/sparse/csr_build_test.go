package sparse

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// refNewFromCoords is the comparison-sort construction the counting-sort
// builder replaced, kept as the reference it must match bit for bit: sort
// the coordinates by (row, col, w), then sum each run of duplicates.
func refNewFromCoords(n int, coords []Coord) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d", n)
	}
	for _, c := range coords {
		if c.Row < 0 || int(c.Row) >= n || c.Col < 0 || int(c.Col) >= n {
			return nil, fmt.Errorf("sparse: coordinate (%d,%d) out of range for n=%d", c.Row, c.Col, n)
		}
	}
	sort.Slice(coords, func(i, j int) bool {
		if coords[i].Row != coords[j].Row {
			return coords[i].Row < coords[j].Row
		}
		if coords[i].Col != coords[j].Col {
			return coords[i].Col < coords[j].Col
		}
		return coords[i].W < coords[j].W
	})
	indptr := make([]int, n+1)
	indices := make([]int32, 0, len(coords))
	data := make([]float64, 0, len(coords))
	for i := 0; i < len(coords); {
		j := i
		w := 0.0
		for j < len(coords) && coords[j].Row == coords[i].Row && coords[j].Col == coords[i].Col {
			w += coords[j].W
			j++
		}
		indices = append(indices, coords[i].Col)
		data = append(data, w)
		indptr[coords[i].Row+1]++
		i = j
	}
	for i := 0; i < n; i++ {
		indptr[i+1] += indptr[i]
	}
	c := &CSR{N: n, IndPtr: indptr, Indices: indices}
	for _, w := range data {
		if w != 1 {
			c.Data = data
			break
		}
	}
	return c, nil
}

// refNewSymmetricFromEdges expands an edge list into coordinates, both
// directions and self-loops once, and builds them with refNewFromCoords.
func refNewSymmetricFromEdges(n int, edges [][2]int32, weights []float64) (*CSR, error) {
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("sparse: %d weights for %d edges", len(weights), len(edges))
	}
	coords := make([]Coord, 0, 2*len(edges))
	for i, e := range edges {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		coords = append(coords, Coord{e[0], e[1], w})
		if e[0] != e[1] {
			coords = append(coords, Coord{e[1], e[0], w})
		}
	}
	return refNewFromCoords(n, coords)
}

// sameBuild reports how got differs from want — the matrix or the error —
// or "" when they are identical: IndPtr, Indices, Data bit for bit, and
// whether Data is nil.
func sameBuild(got *CSR, gotErr error, want *CSR, wantErr error) string {
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	case got.N != want.N:
		return fmt.Sprintf("N %d, reference %d", got.N, want.N)
	case !slices.Equal(got.IndPtr, want.IndPtr):
		return fmt.Sprintf("IndPtr %v, reference %v", got.IndPtr, want.IndPtr)
	case !slices.Equal(got.Indices, want.Indices):
		return fmt.Sprintf("Indices %v, reference %v", got.Indices, want.Indices)
	case (got.Data == nil) != (want.Data == nil):
		return fmt.Sprintf("Data nil %v, reference %v", got.Data == nil, want.Data == nil)
	case !slices.EqualFunc(got.Data, want.Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
		return fmt.Sprintf("Data %v, reference %v", got.Data, want.Data)
	}
	return ""
}

// checkSymmetricBuild builds an edge list both ways and fails on any
// difference.
func checkSymmetricBuild(t *testing.T, name string, n int, edges [][2]int32, weights []float64) {
	t.Helper()
	got, gotErr := NewSymmetricFromEdges(n, edges, weights)
	want, wantErr := refNewSymmetricFromEdges(n, edges, weights)
	if d := sameBuild(got, gotErr, want, wantErr); d != "" {
		t.Errorf("%s: NewSymmetricFromEdges: %s", name, d)
	}
}

// testEdgeList draws m edge listings over the first n−tail nodes (the last
// tail nodes stay isolated): about a fifth repeat an earlier pair, half of
// those reversed, and a few are self-loops. Weights, when asked for, come
// from a four-value set — so repeats tie — or are uniform; the list is
// sorted by (u, v) before it is returned.
func testEdgeList(rng *rand.Rand, n, tail, m int, weights string) ([][2]int32, []float64) {
	span := n - tail
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		switch r := rng.IntN(20); {
		case r < 4 && len(edges) > 0:
			e := edges[rng.IntN(len(edges))]
			if r < 2 {
				e[0], e[1] = e[1], e[0]
			}
			edges = append(edges, e)
		case r == 4:
			u := int32(rng.IntN(span))
			edges = append(edges, [2]int32{u, u})
		default:
			edges = append(edges, [2]int32{int32(rng.IntN(span)), int32(rng.IntN(span))})
		}
	}
	slices.SortFunc(edges, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	var w []float64
	switch weights {
	case "tied":
		w = make([]float64, m)
		for i := range w {
			w[i] = []float64{0.1, 0.2, 0.3, 1}[rng.IntN(4)]
		}
	case "untied":
		w = make([]float64, m)
		for i := range w {
			w[i] = 0.1 + rng.Float64()
		}
	}
	return edges, w
}

// TestBuildMatchesSortReference: the counting-sort builder produces exactly
// the CSR of the comparison sort it replaced, on sorted, shuffled and
// reversed lists with duplicates (tied and untied weights, and unweighted,
// which must materialize Data), self-loops, isolated trailing nodes and
// n = 0; and NewFromCoords does on unordered, duplicated coordinates. The
// errors match too.
func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	for _, weights := range []string{"none", "tied", "untied"} {
		for _, size := range [][3]int{{1, 0, 1}, {7, 2, 30}, {300, 17, 2000}, {3000, 5, 12000}} {
			n, tail, m := size[0], size[1], size[2]
			sorted, w := testEdgeList(rng, n, tail, m, weights)
			name := fmt.Sprintf("%s n=%d m=%d", weights, n, m)
			checkSymmetricBuild(t, name+" sorted", n, sorted, w)

			rev := slices.Clone(sorted)
			revW := slices.Clone(w)
			slices.Reverse(rev)
			slices.Reverse(revW)
			checkSymmetricBuild(t, name+" reversed", n, rev, revW)

			shuf, shufW := slices.Clone(sorted), slices.Clone(w)
			rng.Shuffle(len(shuf), func(i, j int) {
				shuf[i], shuf[j] = shuf[j], shuf[i]
				if shufW != nil {
					shufW[i], shufW[j] = shufW[j], shufW[i]
				}
			})
			checkSymmetricBuild(t, name+" shuffled", n, shuf, shufW)
		}
	}
	checkSymmetricBuild(t, "n=0", 0, nil, nil)
	checkSymmetricBuild(t, "n=0 empty weights", 0, [][2]int32{}, []float64{})

	for _, tc := range []struct {
		name    string
		n       int
		edges   [][2]int32
		weights []float64
	}{
		{"id = n", 3, [][2]int32{{0, 1}, {1, 3}}, nil},
		{"first id = n", 3, [][2]int32{{3, 0}}, nil},
		{"negative id", 3, [][2]int32{{0, 1}, {-1, 2}}, nil},
		{"negative second id", 3, [][2]int32{{2, -5}}, []float64{1}},
		{"negative n", -1, [][2]int32{{0, 1}}, nil},
		{"negative n, no edges", -2, nil, nil},
		{"weight length", 3, [][2]int32{{0, 1}}, []float64{1, 2}},
		{"weight length and negative n", -1, [][2]int32{{0, 1}}, []float64{}},
	} {
		got, err := NewSymmetricFromEdges(tc.n, tc.edges, tc.weights)
		if err == nil {
			t.Errorf("%s: accepted as %v", tc.name, got)
		}
		checkSymmetricBuild(t, tc.name, tc.n, tc.edges, tc.weights)
	}

	for _, n := range []int{1, 9, 400} {
		coords := make([]Coord, 6*n)
		for i := range coords {
			coords[i] = Coord{int32(rng.IntN(n)), int32(rng.IntN(n)), []float64{1, 0.5, -2, 0.1, 0.2}[rng.IntN(5)]}
		}
		got, gotErr := NewFromCoords(n, coords)
		want, wantErr := refNewFromCoords(n, slices.Clone(coords))
		if d := sameBuild(got, gotErr, want, wantErr); d != "" {
			t.Errorf("NewFromCoords n=%d: %s", n, d)
		}
		coords[len(coords)/2].Col = int32(n)
		got, gotErr = NewFromCoords(n, coords)
		want, wantErr = refNewFromCoords(n, slices.Clone(coords))
		if gotErr == nil || sameBuild(got, gotErr, want, wantErr) != "" {
			t.Errorf("NewFromCoords n=%d out of range: error %v, reference %v", n, gotErr, wantErr)
		}
	}
}

// fuzzWeights are the weights FuzzCSRBuild draws from: ties, ±0, values
// whose sum depends on the order they are added in (0.1, 0.2, 0.3), and
// magnitudes far apart.
var fuzzWeights = []float64{1, 1, 2, 0.5, 0.1, 0.2, 0.3, 0, math.Copysign(0, -1), 1e-3, 3, 1e300, -1, 7.25}

// FuzzCSRBuild: the builder never panics, and on any input it either builds
// exactly the reference's CSR or both return the same error. Byte 0 is n−1,
// byte 1 flags (bit 0 weighted, bit 1 NewFromCoords instead of an edge
// list, bit 2 one weight too many); the rest is (u, v[, weight index])
// tuples, where byte 0xff is node −1 and 0xfe node n.
func FuzzCSRBuild(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{4, 1, 0, 1, 6, 1, 0, 5, 0, 1, 4, 2, 2, 3})
	f.Add([]byte{4, 3, 3, 1, 6, 3, 1, 5, 3, 1, 4})
	f.Add([]byte{2, 1, 0, 0, 7, 0, 0, 8, 1, 0xfe, 1})
	f.Add([]byte{0, 5, 0, 0, 1})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n, flags, body := int(in[0])-1, in[1], in[2:]
		weighted, coordsMode, extraWeight := flags&1 != 0, flags&2 != 0, flags&4 != 0
		id := func(b byte) int32 {
			switch b {
			case 0xff:
				return -1
			case 0xfe:
				return int32(n)
			}
			return int32(int(b) % max(n, 1))
		}
		width := 2
		if weighted {
			width = 3
		}
		var edges [][2]int32
		var weights []float64
		for ; len(body) >= width; body = body[width:] {
			edges = append(edges, [2]int32{id(body[0]), id(body[1])})
			if weighted {
				weights = append(weights, fuzzWeights[int(body[2])%len(fuzzWeights)])
			}
		}
		if coordsMode {
			coords := make([]Coord, len(edges))
			for i, e := range edges {
				coords[i] = Coord{e[0], e[1], 1}
				if weighted {
					coords[i].W = weights[i]
				}
			}
			got, gotErr := NewFromCoords(n, coords)
			want, wantErr := refNewFromCoords(n, coords)
			if d := sameBuild(got, gotErr, want, wantErr); d != "" {
				t.Fatalf("NewFromCoords(%d, %v): %s", n, coords, d)
			}
			return
		}
		if extraWeight {
			weights = append(weights, 1)
		}
		got, gotErr := NewSymmetricFromEdges(n, edges, weights)
		want, wantErr := refNewSymmetricFromEdges(n, edges, weights)
		if d := sameBuild(got, gotErr, want, wantErr); d != "" {
			t.Fatalf("NewSymmetricFromEdges(%d, %v, %v): %s", n, edges, weights, d)
		}
	})
}

// TestBuildAllocsConstant: the builder's allocations are a fixed handful —
// row pointers, columns, weights, one row sorter, the matrix — on a
// shuffled list whatever its length: nothing per row or per edge.
func TestBuildAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 2))
	for _, weights := range []string{"none", "untied"} {
		allocs := func(n, m int) float64 {
			edges, w := testEdgeList(rng, n, 0, m, weights)
			rng.Shuffle(len(edges), func(i, j int) {
				edges[i], edges[j] = edges[j], edges[i]
			})
			return testing.AllocsPerRun(3, func() {
				if _, err := NewSymmetricFromEdges(n, edges, w); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, big := allocs(2000, 10000), allocs(20000, 100000)
		if small != big || big > 6 {
			t.Errorf("weights %s: %v allocations at 2k/10k, %v at 20k/100k; want the same handful", weights, small, big)
		}
	}
}
