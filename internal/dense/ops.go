package dense

import (
	"fmt"
	"math"
)

// Mul returns a × b. Shapes must be compatible (a.Cols == b.Rows).
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul shape mismatch %d×%d × %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes out = a × b, reusing out's storage. out must not alias a
// or b.
func MulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulInto shape mismatch %d×%d × %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulInto bad out shape %d×%d, want %d×%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	n, k, c := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		orow := out.Data[i*c : (i+1)*c]
		for j := range orow {
			orow[j] = 0
		}
		arow := a.Data[i*k : (i+1)*k]
		for l, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[l*c : (l+1)*c]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// Transpose returns the transpose of m.
func Transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	sameShape("Add", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns a − b.
func Sub(a, b *Matrix) *Matrix {
	sameShape("Sub", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// AddInPlace sets a += b.
func AddInPlace(a, b *Matrix) {
	sameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale returns c·m as a new matrix.
func Scale(m *Matrix, c float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= c
	}
	return out
}

// ScaleInPlace multiplies every entry of m by c.
func ScaleInPlace(m *Matrix, c float64) {
	for i := range m.Data {
		m.Data[i] *= c
	}
}

// AddScalar returns m + c applied entry-wise (the paper's "broadcasting
// notation", footnote 3).
func AddScalar(m *Matrix, c float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += c
	}
	return out
}

// Frobenius returns the Frobenius norm sqrt(Σ m_ij²).
func Frobenius(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobeniusDist returns ||a − b||_F.
func FrobeniusDist(a, b *Matrix) float64 {
	sameShape("FrobeniusDist", a, b)
	var s float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Dot returns the entry-wise inner product <a, b> = Σ a_ij·b_ij.
func Dot(a, b *Matrix) float64 {
	sameShape("Dot", a, b)
	var s float64
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// RowSums returns the vector of row sums (M·1 in the paper's notation).
func RowSums(m *Matrix) []float64 {
	s := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var t float64
		for _, v := range m.Row(i) {
			t += v
		}
		s[i] = t
	}
	return s
}

// ColSums returns the vector of column sums.
func ColSums(m *Matrix) []float64 {
	s := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			s[j] += v
		}
	}
	return s
}

// Sum returns the sum of all entries (1ᵀM1).
func Sum(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// RowNormalize returns diag(M1)⁻¹·M, the row-stochastic normalization
// (normalization variant 1, Eq. 9). Rows whose sum is zero are left as-is.
func RowNormalize(m *Matrix) *Matrix {
	out := m.Clone()
	for i := 0; i < m.Rows; i++ {
		var t float64
		row := out.Row(i)
		for _, v := range row {
			t += v
		}
		if t == 0 {
			continue
		}
		for j := range row {
			row[j] /= t
		}
	}
	return out
}

// SymNormalize returns diag(M1)^(−1/2)·M·diag(M1)^(−1/2), the LGC-style
// symmetric normalization (normalization variant 2, Eq. 10). Rows with zero
// sum contribute zero scaling.
func SymNormalize(m *Matrix) *Matrix {
	if m.Rows != m.Cols {
		panic("dense: SymNormalize requires a square matrix")
	}
	sums := RowSums(m)
	inv := make([]float64, len(sums))
	for i, s := range sums {
		if s > 0 {
			inv[i] = 1 / math.Sqrt(s)
		}
	}
	out := m.Clone()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[i*m.Cols+j] *= inv[i] * inv[j]
		}
	}
	return out
}

// ScaleNormalize returns k·(1ᵀM1)⁻¹·M so the average entry is 1/k
// (normalization variant 3, Eq. 11).
func ScaleNormalize(m *Matrix) *Matrix {
	if m.Rows != m.Cols {
		panic("dense: ScaleNormalize requires a square matrix")
	}
	total := Sum(m)
	if total == 0 {
		return m.Clone()
	}
	return Scale(m, float64(m.Rows)/total)
}

// Powers returns the slice [m¹, m², …, mᵖ].
func Powers(m *Matrix, p int) []*Matrix {
	out := make([]*Matrix, p)
	cur := m.Clone()
	for i := 0; i < p; i++ {
		out[i] = cur
		if i+1 < p {
			cur = Mul(cur, m)
		}
	}
	return out
}

// Symmetrize returns (m + mᵀ)/2.
func Symmetrize(m *Matrix) *Matrix {
	if m.Rows != m.Cols {
		panic("dense: Symmetrize requires a square matrix")
	}
	out := m.Clone()
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			out.Data[i*n+j] = v
			out.Data[j*n+i] = v
		}
	}
	return out
}

// MaxAbs returns the largest absolute entry.
func MaxAbs(m *Matrix) float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// ArgmaxRows returns, for each row, the index of its maximum entry. Ties
// resolve to the lowest index, matching the paper's label(·) operator; NaN
// never wins, and a row with no entry above −Inf gives 0.
//
// That is the loop "keep j if v_j > best, best starting at −Inf", whose
// last kept j is the one with v_j > −Inf and no earlier entry ≥ v_j. The
// k = 3 and k = 5 arms read a row once and test that for each entry with
// flag arithmetic, so a row costs no mispredicted branch.
func ArgmaxRows(m *Matrix) []int {
	dst := make([]int, m.Rows)
	k, ninf := m.Cols, math.Inf(-1)
	switch k {
	case 3:
		d := m.Data[:3*len(dst)]
		for i := range dst {
			r := (*[3]float64)(d[3*i:])
			a, b, c := r[0], r[1], r[2]
			bi := b2i(b > ninf) & b2i(!(a >= b))
			if b2i(c > ninf)&b2i(!(a >= c))&b2i(!(b >= c)) != 0 {
				bi = 2
			}
			dst[i] = bi
		}
	case 5:
		d := m.Data[:5*len(dst)]
		for i := range dst {
			r := (*[5]float64)(d[5*i:])
			a, b, c, e, f := r[0], r[1], r[2], r[3], r[4]
			bi := b2i(b > ninf) & b2i(!(a >= b))
			if b2i(c > ninf)&b2i(!(a >= c))&b2i(!(b >= c)) != 0 {
				bi = 2
			}
			if b2i(e > ninf)&b2i(!(a >= e))&b2i(!(b >= e))&b2i(!(c >= e)) != 0 {
				bi = 3
			}
			if b2i(f > ninf)&b2i(!(a >= f))&b2i(!(b >= f))&b2i(!(c >= f))&b2i(!(e >= f)) != 0 {
				bi = 4
			}
			dst[i] = bi
		}
	default:
		for i := range dst {
			best, bi := ninf, 0
			for j, v := range m.Data[i*k : (i+1)*k] {
				if v > best {
					best, bi = v, j
				}
			}
			dst[i] = bi
		}
	}
	return dst
}

// b2i is 1 for true and 0 for false; the compiler sets it from the flags.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// SpectralRadiusSym estimates the spectral radius of a symmetric matrix by
// power iteration. For symmetric matrices the spectral radius equals the
// 2-norm, so power iteration on m converges to it.
func SpectralRadiusSym(m *Matrix, iters int) float64 {
	if m.Rows != m.Cols {
		panic("dense: SpectralRadiusSym requires a square matrix")
	}
	n := m.Rows
	if n == 0 {
		return 0
	}
	// Deterministic non-degenerate start vector.
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + float64(i%7)/7
	}
	w := make([]float64, n)
	var lambda float64
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			var s float64
			row := m.Data[i*n : (i+1)*n]
			for j, mv := range row {
				s += mv * v[j]
			}
			w[i] = s
		}
		var norm float64
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range w {
			v[i] = w[i] / norm
		}
		lambda = norm
	}
	return lambda
}

func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: %s shape mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
