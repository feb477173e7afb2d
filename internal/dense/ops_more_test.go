package dense

import (
	"math"
	"testing"
)

func TestConstant(t *testing.T) {
	c := Constant(2, 3, 0.5)
	for _, v := range c.Data {
		if v != 0.5 {
			t.Fatalf("Constant entry %v", v)
		}
	}
}

func TestMulIntoAliasSafeShapes(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 0}, {0, 1}})
	out := New(2, 2)
	MulInto(out, a, b)
	if !Equal(out, a, 0) {
		t.Errorf("MulInto identity wrong: %v", out)
	}
}

func TestMulIntoPanics(t *testing.T) {
	a := New(2, 3)
	b := New(3, 2)
	for _, out := range []*Matrix{New(3, 2), New(2, 3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad out shape")
				}
			}()
			MulInto(out, a, b)
		}()
	}
}

func TestSymNormalizeZeroRow(t *testing.T) {
	m := FromRows([][]float64{{0, 0}, {0, 4}})
	got := SymNormalize(m)
	if got.At(0, 0) != 0 || got.At(0, 1) != 0 {
		t.Errorf("zero row should stay zero: %v", got)
	}
	if math.Abs(got.At(1, 1)-1) > 1e-12 {
		t.Errorf("SymNormalize(4/4) = %v", got.At(1, 1))
	}
}

func TestRowNormalizeZeroRowPreserved(t *testing.T) {
	m := FromRows([][]float64{{0, 0}, {1, 1}})
	got := RowNormalize(m)
	if got.At(0, 0) != 0 || got.At(0, 1) != 0 {
		t.Errorf("zero row changed: %v", got)
	}
}

func TestAddScalarAndBroadcastConsistency(t *testing.T) {
	// The paper's "broadcasting notation" (footnote 3): X + c applied
	// entry-wise. Verify AddScalar(X,c) − X is the constant matrix.
	x := FromRows([][]float64{{1, 2}, {3, 4}})
	diff := Sub(AddScalar(x, 0.25), x)
	if !Equal(diff, Constant(2, 2, 0.25), 1e-12) {
		t.Errorf("broadcast inconsistency: %v", diff)
	}
}

func TestCopyFromPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	New(2, 2).CopyFrom(New(3, 3))
}

func TestRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad row")
		}
	}()
	New(2, 2).Row(5)
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative dims")
		}
	}()
	New(-1, 2)
}

func TestSpectralRadiusSymNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SpectralRadiusSym(New(2, 3), 10)
}

func TestSymmetrizeNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Symmetrize(New(2, 3))
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(2, 2), New(2, 3), 1) {
		t.Error("different shapes reported equal")
	}
}
