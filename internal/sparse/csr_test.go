package sparse

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"factorgraph/internal/dense"
)

// triangle builds the unweighted 3-cycle adjacency matrix.
func triangle(t *testing.T) *CSR {
	t.Helper()
	w, err := NewSymmetricFromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewSymmetricFromEdges(t *testing.T) {
	w := triangle(t)
	if w.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6", w.NNZ())
	}
	if w.Data != nil {
		t.Error("unweighted graph should use implicit ones")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 1.0
			if i == j {
				want = 0
			}
			if got := w.At(i, j); got != want {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestNewFromCoordsDuplicatesSum: duplicates become one entry holding their
// sum, added in ascending-weight order whatever order they arrive in —
// 0.3, 0.2, 0.1 sum to (0.1+0.2)+0.3 = 0.6000000000000001, not 0.6, on both
// sides of the diagonal — and the sum decides whether Data stays: unit
// duplicates materialize it, sums of exactly 1 collapse it.
func TestNewFromCoordsDuplicatesSum(t *testing.T) {
	w1, w2, w3 := 0.1, 0.2, 0.3 // float64 variables: constants would add exactly
	ascending := (w1 + w2) + w3
	if ascending == (w3+w2)+w1 {
		t.Fatal("fixture weights sum alike in either order")
	}
	edges := func(n int, e [][2]int32, w []float64) func() (*CSR, error) {
		return func() (*CSR, error) { return NewSymmetricFromEdges(n, e, w) }
	}
	coords := func(n int, c ...Coord) func() (*CSR, error) {
		return func() (*CSR, error) { return NewFromCoords(n, c) }
	}
	for _, tc := range []struct {
		name    string
		build   func() (*CSR, error)
		want    [][]float64
		nilData bool
		wantNNZ int
	}{
		{"summed", coords(2, Coord{0, 1, 2}, Coord{0, 1, 3}), [][]float64{{0, 5}, {0, 0}}, false, 1},
		{"ascending order", coords(2, Coord{0, 1, 0.3}, Coord{0, 1, 0.2}, Coord{0, 1, 0.1}), [][]float64{{0, ascending}, {0, 0}}, false, 1},
		{"ascending order, symmetric", edges(2, [][2]int32{{0, 1}, {1, 0}, {0, 1}}, []float64{0.3, 0.2, 0.1}), [][]float64{{0, ascending}, {ascending, 0}}, false, 2},
		{"unit duplicates materialize Data", edges(3, [][2]int32{{0, 1}, {1, 2}, {1, 0}}, nil), [][]float64{{0, 2, 0}, {2, 0, 1}, {0, 1, 0}}, false, 4},
		{"unit self-loop repeated", edges(2, [][2]int32{{1, 1}, {0, 1}, {1, 1}}, nil), [][]float64{{0, 1}, {1, 2}}, false, 3},
		{"sums of one collapse Data", coords(2, Coord{1, 0, 0.5}, Coord{0, 1, 1}, Coord{1, 0, 0.5}), [][]float64{{0, 1}, {1, 0}}, true, 2},
	} {
		c, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.NNZ() != tc.wantNNZ || (c.Data == nil) != tc.nilData {
			t.Errorf("%s: nnz %d, Data %v; want nnz %d, Data nil %v", tc.name, c.NNZ(), c.Data, tc.wantNNZ, tc.nilData)
		}
		for i, row := range tc.want {
			for j, want := range row {
				if got := c.At(i, j); got != want {
					t.Errorf("%s: (%d,%d) = %v, want %v", tc.name, i, j, got, want)
				}
			}
		}
	}
}

func TestNewFromCoordsOutOfRange(t *testing.T) {
	if _, err := NewFromCoords(2, []Coord{{0, 5, 1}}); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := NewFromCoords(-1, nil); err == nil {
		t.Error("expected negative-dimension error")
	}
}

func TestWeightedEdges(t *testing.T) {
	w, err := NewSymmetricFromEdges(2, [][2]int32{{0, 1}}, []float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	if w.At(0, 1) != 2.5 || w.At(1, 0) != 2.5 {
		t.Errorf("weighted edge wrong: %v %v", w.At(0, 1), w.At(1, 0))
	}
	if _, err := NewSymmetricFromEdges(2, [][2]int32{{0, 1}}, []float64{1, 2}); err == nil {
		t.Error("expected weight-length error")
	}
}

func TestSelfLoopSingleEntry(t *testing.T) {
	w, err := NewSymmetricFromEdges(2, [][2]int32{{0, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.NNZ() != 1 || w.At(0, 0) != 1 {
		t.Errorf("self-loop handling wrong: nnz=%d at=%v", w.NNZ(), w.At(0, 0))
	}
}

func TestDegrees(t *testing.T) {
	w := triangle(t)
	for i, d := range w.Degrees() {
		if d != 2 {
			t.Errorf("degree[%d] = %v, want 2", i, d)
		}
	}
	wt, _ := NewSymmetricFromEdges(2, [][2]int32{{0, 1}}, []float64{3})
	if d := wt.Degrees(); d[0] != 3 || d[1] != 3 {
		t.Errorf("weighted degrees = %v", d)
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	w := triangle(t)
	x := dense.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	got := w.MulDense(x)
	want := dense.Mul(w.ToDense(), x)
	if !dense.Equal(got, want, 1e-12) {
		t.Errorf("MulDense = %v, want %v", got, want)
	}
}

// Property: CSR MulDense agrees with the dense reference on random graphs.
func TestMulDenseProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	f := func() bool {
		n := 2 + r.IntN(10)
		w := randGraph(r, n, 0.4)
		x := dense.New(n, 3)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		return dense.Equal(w.MulDense(x), dense.Mul(w.ToDense(), x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	w := triangle(t)
	got := w.MulVec([]float64{1, 2, 3})
	want := []float64{5, 4, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: sparse Mul matches dense multiplication.
func TestSparseMulProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	f := func() bool {
		n := 2 + r.IntN(8)
		a := randGraph(r, n, 0.5)
		b := randGraph(r, n, 0.5)
		prod, err := Mul(a, b)
		if err != nil {
			return false
		}
		return dense.Equal(prod.ToDense(), dense.Mul(a.ToDense(), b.ToDense()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a, _ := NewFromCoords(2, nil)
	b, _ := NewFromCoords(3, nil)
	if _, err := Mul(a, b); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestAddDiag(t *testing.T) {
	w := triangle(t)
	got, err := AddDiag(w, []float64{1, 0, -2})
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 1 || got.At(1, 1) != 0 || got.At(2, 2) != -2 {
		t.Errorf("AddDiag diagonal wrong: %v", got.ToDense())
	}
	if got.At(0, 1) != 1 {
		t.Error("AddDiag lost off-diagonal entries")
	}
	if _, err := AddDiag(w, []float64{1}); err == nil {
		t.Error("expected length error")
	}
}

func TestScale(t *testing.T) {
	w := triangle(t)
	s := Scale(w, 0.5)
	if s.At(0, 1) != 0.5 {
		t.Errorf("Scale = %v", s.At(0, 1))
	}
}

func TestSpectralRadiusKnown(t *testing.T) {
	// 3-cycle: eigenvalues {2, −1, −1}, so ρ = 2.
	w := triangle(t)
	if got := w.SpectralRadius(300); math.Abs(got-2) > 1e-6 {
		t.Errorf("ρ(triangle) = %v, want 2", got)
	}
	// Path of 2 nodes: eigenvalues {1, −1}, ρ = 1.
	p, _ := NewSymmetricFromEdges(2, [][2]int32{{0, 1}}, nil)
	if got := p.SpectralRadius(300); math.Abs(got-1) > 1e-6 {
		t.Errorf("ρ(path2) = %v, want 1", got)
	}
	// Empty matrix.
	e, _ := NewFromCoords(4, nil)
	if got := e.SpectralRadius(10); got != 0 {
		t.Errorf("ρ(empty) = %v, want 0", got)
	}
}

// Property: ρ(W) is at most the max degree and at least the average degree
// for any nonempty undirected graph (standard bounds).
func TestSpectralRadiusBoundsProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	f := func() bool {
		n := 3 + r.IntN(10)
		w := randGraph(r, n, 0.5)
		if w.NNZ() == 0 {
			return true
		}
		rho := w.SpectralRadius(500)
		degs := w.Degrees()
		var maxd, sumd float64
		for _, d := range degs {
			if d > maxd {
				maxd = d
			}
			sumd += d
		}
		avg := sumd / float64(n)
		return rho <= maxd+1e-6 && rho >= avg-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestToDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 18))
	w := randGraph(r, 6, 0.5)
	d := w.ToDense()
	// Symmetry of the adjacency matrix.
	if !dense.Equal(d, dense.Transpose(d), 0) {
		t.Error("adjacency not symmetric")
	}
}

// randGraph builds a random undirected unweighted graph with edge
// probability p.
func randGraph(r *rand.Rand, n int, p float64) *CSR {
	var edges [][2]int32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				edges = append(edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	w, err := NewSymmetricFromEdges(n, edges, nil)
	if err != nil {
		panic(err)
	}
	return w
}
