package dense

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndAt(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Errorf("At(1,2) = %v, want 4.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows wrong entries: %v", m)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("empty FromRows: %+v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	a := randMat(r, 4, 4)
	if !Equal(Mul(a, Identity(4)), a, 1e-12) {
		t.Error("A·I ≠ A")
	}
	if !Equal(Mul(Identity(4), a), a, 1e-12) {
		t.Error("I·A ≠ A")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

// Property: matrix multiplication is associative, (AB)C = A(BC).
func TestMulAssociativeProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	f := func() bool {
		a, b, c := randMat(r, 3, 4), randMat(r, 4, 2), randMat(r, 2, 5)
		return Equal(Mul(Mul(a, b), c), Mul(a, Mul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := Transpose(a)
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("Transpose wrong: %v", at)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestTransposeMulProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	f := func() bool {
		a, b := randMat(r, 3, 4), randMat(r, 4, 2)
		return Equal(Transpose(Mul(a, b)), Mul(Transpose(b), Transpose(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 5}})
	if got := Add(a, b); !Equal(got, FromRows([][]float64{{4, 7}}), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, FromRows([][]float64{{2, 3}}), 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(a, 2); !Equal(got, FromRows([][]float64{{2, 4}}), 0) {
		t.Errorf("Scale = %v", got)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !Equal(c, FromRows([][]float64{{4, 7}}), 0) {
		t.Errorf("AddInPlace = %v", c)
	}
	d := a.Clone()
	ScaleInPlace(d, -1)
	if !Equal(d, FromRows([][]float64{{-1, -2}}), 0) {
		t.Errorf("ScaleInPlace = %v", d)
	}
	if got := AddScalar(a, 10); !Equal(got, FromRows([][]float64{{11, 12}}), 0) {
		t.Errorf("AddScalar = %v", got)
	}
}

func TestFrobenius(t *testing.T) {
	a := FromRows([][]float64{{3, 4}})
	if got := Frobenius(a); math.Abs(got-5) > 1e-12 {
		t.Errorf("Frobenius = %v, want 5", got)
	}
	b := FromRows([][]float64{{0, 0}})
	if got := FrobeniusDist(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusDist = %v, want 5", got)
	}
}

func TestDot(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := Dot(a, b); got != 5+12+21+32 {
		t.Errorf("Dot = %v", got)
	}
}

func TestRowColSums(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	rs := RowSums(a)
	if rs[0] != 3 || rs[1] != 7 {
		t.Errorf("RowSums = %v", rs)
	}
	cs := ColSums(a)
	if cs[0] != 4 || cs[1] != 6 {
		t.Errorf("ColSums = %v", cs)
	}
	if Sum(a) != 10 {
		t.Errorf("Sum = %v", Sum(a))
	}
}

func TestRowNormalize(t *testing.T) {
	a := FromRows([][]float64{{2, 2}, {0, 0}, {1, 3}})
	got := RowNormalize(a)
	want := FromRows([][]float64{{0.5, 0.5}, {0, 0}, {0.25, 0.75}})
	if !Equal(got, want, 1e-12) {
		t.Errorf("RowNormalize = %v", got)
	}
}

// Property: RowNormalize yields row sums of 1 for positive matrices.
func TestRowNormalizeStochasticProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	f := func() bool {
		a := randPosMat(r, 4, 4)
		for _, s := range RowSums(RowNormalize(a)) {
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymNormalizePreservesSymmetry(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	got := SymNormalize(a)
	if math.Abs(got.At(0, 1)-got.At(1, 0)) > 1e-12 {
		t.Errorf("SymNormalize broke symmetry: %v", got)
	}
	// diag entries: 2/3 and 3/4
	if math.Abs(got.At(0, 0)-2.0/3) > 1e-12 || math.Abs(got.At(1, 1)-3.0/4) > 1e-12 {
		t.Errorf("SymNormalize diagonal wrong: %v", got)
	}
}

func TestScaleNormalize(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	got := ScaleNormalize(a)
	// average entry must be 1/k = 1/2
	if math.Abs(Sum(got)/4-0.5) > 1e-12 {
		t.Errorf("ScaleNormalize avg = %v, want 0.5", Sum(got)/4)
	}
	z := New(2, 2)
	if !Equal(ScaleNormalize(z), z, 0) {
		t.Error("ScaleNormalize of zero matrix should be zero")
	}
}

func TestPowers(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {0, 1}})
	ps := Powers(a, 3)
	if len(ps) != 3 || !Equal(ps[0], a, 0) || !Equal(ps[1], Mul(a, a), 0) || !Equal(ps[2], Mul(Mul(a, a), a), 0) {
		t.Errorf("Powers wrong: %v", ps)
	}
	if !Equal(ps[2], FromRows([][]float64{{1, 3}, {0, 1}}), 0) {
		t.Errorf("a³ = %v", ps[2])
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {4, 3}})
	got := Symmetrize(a)
	want := FromRows([][]float64{{1, 3}, {3, 3}})
	if !Equal(got, want, 1e-12) {
		t.Errorf("Symmetrize = %v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromRows([][]float64{{1, -7}, {4, 3}})
	if MaxAbs(a) != 7 {
		t.Errorf("MaxAbs = %v", MaxAbs(a))
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromRows([][]float64{{1, 3, 2}, {5, 5, 1}, {-2, -1, -3}})
	got := ArgmaxRows(a)
	want := []int{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ArgmaxRows[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSpectralRadiusSym(t *testing.T) {
	// Known eigenvalues: diag(3, 1) rotated is still {3, 1}.
	a := FromRows([][]float64{{2, 1}, {1, 2}}) // eigenvalues 3 and 1
	if got := SpectralRadiusSym(a, 200); math.Abs(got-3) > 1e-6 {
		t.Errorf("SpectralRadiusSym = %v, want 3", got)
	}
	z := New(3, 3)
	if got := SpectralRadiusSym(z, 10); got != 0 {
		t.Errorf("zero matrix radius = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestString(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	if a.String() == "" {
		t.Error("empty String()")
	}
}

func randMat(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func randPosMat(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Float64() + 0.01
	}
	return m
}
