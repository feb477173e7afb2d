package sparse

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"factorgraph/internal/dense"
)

func TestAtOutOfRangePanics(t *testing.T) {
	w := triangle(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.At(0, 99)
}

func TestMulVecLengthPanics(t *testing.T) {
	w := triangle(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.MulVec([]float64{1})
}

func TestMulDenseShapePanics(t *testing.T) {
	w := triangle(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.MulDense(dense.New(5, 2))
}

func TestMulDenseIntoBadOutPanics(t *testing.T) {
	w := triangle(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.MulDenseInto(dense.New(2, 2), dense.New(3, 2))
}

// TestMulDenseAliasPanics: a product into its own operand would read rows
// it has already overwritten; every entry point refuses it instead.
func TestMulDenseAliasPanics(t *testing.T) {
	w := triangle(t)
	x := dense.Constant(3, 2, 1)
	sameData := &dense.Matrix{Rows: 3, Cols: 2, Data: x.Data}
	for name, mul := range map[string]func(){
		"MulDenseInto":       func() { w.MulDenseInto(x, x) },
		"MulDenseInto/view":  func() { w.MulDenseInto(sameData, x) },
		"MulDenseIntoSimple": func() { w.MulDenseIntoSimple(x, x) },
		"MulDenseRowsInto":   func() { w.MulDenseRowsInto(x, x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic on out aliasing x", name)
				}
			}()
			mul()
		}()
	}
}

// TestMulDenseRowsInto: with operands that carry rows past N, rows [0, N)
// match MulDenseInto bit for bit and the extra rows of out are untouched;
// an operand shorter than N panics.
func TestMulDenseRowsInto(t *testing.T) {
	w := triangle(t)
	x := dense.New(5, 2)
	for i := range x.Data {
		x.Data[i] = float64(i) + 0.5
	}
	out := dense.Constant(5, 2, -7)
	w.MulDenseRowsInto(out, x)
	want := w.MulDense(&dense.Matrix{Rows: 3, Cols: 2, Data: x.Data[:6]})
	for i, v := range want.Data {
		if out.Data[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	for _, v := range out.Data[6:] {
		if v != -7 {
			t.Fatalf("rows past N were written: %v", out.Data[6:])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on an X shorter than N")
		}
	}()
	w.MulDenseRowsInto(dense.New(5, 2), dense.New(2, 2))
}

func TestWeightedSparseMul(t *testing.T) {
	a, err := NewFromCoords(2, []Coord{{0, 1, 2}, {1, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := Mul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	// [[0,2],[3,0]]² = [[6,0],[0,6]]
	if prod.At(0, 0) != 6 || prod.At(1, 1) != 6 || prod.At(0, 1) != 0 {
		t.Errorf("weighted Mul wrong: %v", prod.ToDense())
	}
}

func TestAddDiagAllZeros(t *testing.T) {
	w := triangle(t)
	got, err := AddDiag(w, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(got.ToDense(), w.ToDense(), 0) {
		t.Error("AddDiag with zeros changed the matrix")
	}
}

func TestScalePreservesStructure(t *testing.T) {
	w := triangle(t)
	s := Scale(w, 2)
	if s.NNZ() != w.NNZ() {
		t.Errorf("Scale changed nnz: %d vs %d", s.NNZ(), w.NNZ())
	}
	// Original untouched (implicit ones).
	if w.Data != nil {
		t.Error("Scale mutated the original")
	}
}

// Property: (A·B)·v == A·(B·v) for sparse matrices and vectors.
func TestMulVecAssociativityProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(121, 122))
	f := func() bool {
		n := 2 + r.IntN(8)
		a := randGraph(r, n, 0.5)
		b := randGraph(r, n, 0.5)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		left := ab.MulVec(v)
		right := a.MulVec(b.MulVec(v))
		for i := range left {
			if d := left[i] - right[i]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: degrees equal row sums of the dense form.
func TestDegreesMatchDenseProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(123, 124))
	f := func() bool {
		n := 2 + r.IntN(10)
		w := randGraph(r, n, 0.4)
		degs := w.Degrees()
		rows := dense.RowSums(w.ToDense())
		for i := range degs {
			if degs[i] != rows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
