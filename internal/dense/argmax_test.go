package dense

import (
	"math"
	"testing"
)

// refArgmax is the label(·) loop every arm of ArgmaxRows must agree with:
// keep j whenever v_j exceeds the best so far, which starts at −Inf.
func refArgmax(row []float64) int {
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// argmaxValues are the entries the argmax rows are built from: ties,
// signed zeros, infinities and NaN beside ordinary values.
var argmaxValues = []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}

// checkArgmaxRows compares ArgmaxRows on an n×k matrix with refArgmax row
// by row.
func checkArgmaxRows(t *testing.T, m *Matrix) {
	t.Helper()
	got := ArgmaxRows(m)
	if len(got) != m.Rows {
		t.Fatalf("k=%d: %d labels for %d rows", m.Cols, len(got), m.Rows)
	}
	for i, g := range got {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		if want := refArgmax(row); g != want {
			t.Fatalf("k=%d row %v: ArgmaxRows gives %d, the loop %d", m.Cols, row, g, want)
		}
	}
}

// TestArgmaxRowsArms: every arm — k = 3 and k = 5 and the generic loop at
// k = 2, 4, 6..9 — agrees with refArgmax on named rows (ties, NaN first or
// last, all −Inf, all NaN, −0 against +0) and on every row whose entries
// cycle through argmaxValues at each offset and stride.
func TestArgmaxRowsArms(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	named := map[string]func(k int) []float64{
		"tie at the top": func(k int) []float64 { r := make([]float64, k); r[k-1], r[1] = 2, 2; return r },
		"all equal":      func(k int) []float64 { return fill(k, 0.25) },
		"all −Inf":       func(k int) []float64 { return fill(k, -inf) },
		"all NaN":        func(k int) []float64 { return fill(k, nan) },
		"NaN first":      func(k int) []float64 { r := fill(k, -1); r[0], r[k-1] = nan, -0.5; return r },
		"NaN last":       func(k int) []float64 { r := fill(k, -1); r[k-1], r[k/2] = nan, 3; return r },
		"−0 before +0":   func(k int) []float64 { r := fill(k, -1); r[0], r[1] = math.Copysign(0, -1), 0; return r },
		"+Inf then +Inf": func(k int) []float64 { r := fill(k, 1); r[1], r[k-1] = inf, inf; return r },
		"−Inf then NaN":  func(k int) []float64 { r := fill(k, -inf); r[1] = nan; return r },
	}
	for k := 2; k <= 9; k++ {
		for name, row := range named {
			r := row(k)
			m := &Matrix{Rows: 1, Cols: k, Data: r}
			if got, want := ArgmaxRows(m)[0], refArgmax(r); got != want {
				t.Errorf("k=%d %s %v: ArgmaxRows gives %d, the loop %d", k, name, r, got, want)
			}
		}
		var data []float64
		for off := range argmaxValues {
			for stride := 1; stride < len(argmaxValues); stride++ {
				for j := 0; j < k; j++ {
					data = append(data, argmaxValues[(off+j*stride)%len(argmaxValues)])
				}
			}
		}
		checkArgmaxRows(t, &Matrix{Rows: len(data) / k, Cols: k, Data: data})
	}
	if got := ArgmaxRows(New(0, 3)); len(got) != 0 {
		t.Errorf("no rows: %v", got)
	}
}

func fill(k int, v float64) []float64 {
	r := make([]float64, k)
	for j := range r {
		r[j] = v
	}
	return r
}

// FuzzArgmaxRows: on any bytes read as rows of k = 2..9 entries drawn from
// argmaxValues and small integers (so ties are common), every arm equals
// the loop.
func FuzzArgmaxRows(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(1), []byte{9, 9, 3, 4, 4, 4})
	f.Add(uint8(3), []byte{7, 7, 0, 1, 9, 9, 9, 2, 0, 0, 0, 0, 3, 3, 4})
	f.Add(uint8(5), []byte{1, 1, 1, 1, 1, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, kb uint8, b []byte) {
		k := 2 + int(kb)%8
		data := make([]float64, len(b)/k*k)
		for i := range data {
			if v := int(b[i]); v < len(argmaxValues) {
				data[i] = argmaxValues[v]
			} else {
				data[i] = float64(v%5) - 2
			}
		}
		checkArgmaxRows(t, &Matrix{Rows: len(data) / k, Cols: k, Data: data})
	})
}
