package exec

import (
	"math"
	"sync/atomic"
)

// absMask clears a float64's sign bit.
const absMask = 1<<63 - 1

// AddRowNorm adds w·msg into dst entry by entry and returns dst's ∞-norm
// afterwards: the "forward a message, re-norm the row" step of both
// tracked loops (the scatter round and the residual package's heap push).
// Each entry becomes dst[j] + w·msg[j], the same expression in the same
// order as the per-loop code it replaced, so rows and norms are
// bit-identical to it. The norm is the largest
// sign-masked bit pattern — non-negative float64s order as their bits do —
// so no branch depends on the data. (A NaN entry would win that max where
// the old compare-and-branch skipped it; no finite input produces one.)
// It is small enough to inline into the edge loops. dst and msg must have
// the same length.
func AddRowNorm(dst, msg []float64, w float64) float64 {
	msg = msg[:len(dst)]
	var bits uint64
	for j, v := range dst {
		v += w * msg[j]
		dst[j] = v
		bits = max(bits, math.Float64bits(v)&absMask)
	}
	return math.Float64frombits(bits)
}

// RowNorm returns row's ∞-norm the way AddRowNorm computes it: the largest
// sign-masked bit pattern, with no branch on the data. It is the one row
// norm of the solver stack.
func RowNorm(row []float64) float64 {
	var bits uint64
	for _, v := range row {
		bits = max(bits, math.Float64bits(v)&absMask)
	}
	return math.Float64frombits(bits)
}

// foldRows is the first flat pass of a whole-matrix round over k-wide rows
// stored back to back: f += r, then fh = f·H̃ with MulRowsH's arithmetic.
// k = 3 has a fixed-width arm doing both in one sweep; every other width
// adds, then runs MulRowsH. Both leave the same bits. fh must not alias f.
func foldRows(fh, f, r, hs []float64, k int) {
	f = f[:len(r)]
	if k != 3 {
		for i, v := range r {
			f[i] += v
		}
		MulRowsH(fh, f, hs, k)
		return
	}
	fh = fh[:len(r)]
	h := (*[9]float64)(hs)
	for j := 0; j+3 <= len(r); j += 3 {
		a, b, c := f[j]+r[j], f[j+1]+r[j+1], f[j+2]+r[j+2]
		f[j], f[j+1], f[j+2] = a, b, c
		fh[j], fh[j+1], fh[j+2] = a*h[0]+b*h[3]+c*h[6], a*h[1]+b*h[4]+c*h[7], a*h[2]+b*h[5]+c*h[8]
	}
}

// residualRows is the last flat pass of a whole-matrix round over k-wide
// rows whose r holds W·F·H̃: each entry becomes x + r − f, in that order,
// nrm gets each row's RowNorm, rows above tol are appended to next as
// base+i, and it returns the largest norm's bits. k = 3 has a fixed-width
// arm; both arms leave the same bits.
func residualRows(r, x, f, nrm []float64, k int, base int32, tol float64, next []int32) ([]int32, uint64) {
	x, f, nrm = x[:len(r)], f[:len(r)], nrm[:len(r)/k]
	var top uint64
	if k == 3 {
		for i, j := 0, 0; i < len(nrm); i, j = i+1, j+3 {
			a, b, c := x[j]+r[j]-f[j], x[j+1]+r[j+1]-f[j+1], x[j+2]+r[j+2]-f[j+2]
			r[j], r[j+1], r[j+2] = a, b, c
			bits := max(math.Float64bits(a)&absMask, math.Float64bits(b)&absMask, math.Float64bits(c)&absMask)
			norm := math.Float64frombits(bits)
			nrm[i] = norm
			if norm > tol {
				next = append(next, base+int32(i))
			}
			top = max(top, bits)
		}
		return next, top
	}
	for i := range nrm {
		row := r[i*k : (i+1)*k]
		xs, fs := x[i*k : (i+1)*k][:len(row)], f[i*k : (i+1)*k][:len(row)]
		var bits uint64
		for j, v := range row {
			v = xs[j] + v - fs[j]
			row[j] = v
			bits = max(bits, math.Float64bits(v)&absMask)
		}
		norm := math.Float64frombits(bits)
		nrm[i] = norm
		if norm > tol {
			next = append(next, base+int32(i))
		}
		top = max(top, bits)
	}
	return next, top
}

// scatterRow forwards one message along a row: for every neighbor v in
// cols it adds wts[q]·msg into v's k-wide row of r (AddRowNorm) and stores
// the row's new ∞-norm in nrm[v]. As in MulRowsH, k = 3 has a fixed-width
// arm (AddRowNorm unrolled in the loop: about a third less time per edge
// than the generic step on a 2.1 GHz Xeon) and every other width runs the
// generic step; both compute the same entries and norms. cols holds distinct nodes (a CSR
// row), so each nrm[v] is the norm after the row's only update.
func scatterRow(r, nrm []float64, k int, cols []int32, wts, msg []float64) {
	wts = wts[:len(cols)]
	if k != 3 {
		for q, v := range cols {
			nrm[v] = AddRowNorm(r[int(v)*k:(int(v)+1)*k], msg, wts[q])
		}
		return
	}
	m := (*[3]float64)(msg)
	m0, m1, m2 := m[0], m[1], m[2]
	for q, v := range cols {
		d, w := (*[3]float64)(r[int(v)*3:]), wts[q]
		a, b, c := d[0]+w*m0, d[1]+w*m1, d[2]+w*m2
		d[0], d[1], d[2] = a, b, c
		nrm[v] = math.Float64frombits(max(math.Float64bits(a)&absMask, math.Float64bits(b)&absMask, math.Float64bits(c)&absMask))
	}
}

// unitWeights holds a read-only slice of ones, replaced by a longer one
// whenever a row outgrows it.
var unitWeights atomic.Pointer[[]float64]

// RowWeights returns a row's weights with the unit case made explicit: wts
// itself, or len(cols) ones when wts is nil (RowIterator's all-ones row).
// An edge loop then reads w[q] unconditionally — the weight test runs once
// per row, not once per edge — and 1·x is exactly x, so the products match
// the unit-row arithmetic bit for bit. Safe for concurrent use.
func RowWeights(cols []int32, wts []float64) []float64 {
	if wts == nil {
		wts = unitRow(len(cols))
	}
	return wts[:len(cols)]
}

// unitRow returns n ones.
func unitRow(n int) []float64 {
	size := max(n, 64)
	if cur := unitWeights.Load(); cur != nil {
		if len(*cur) >= n {
			return (*cur)[:n]
		}
		size = max(size, 2*len(*cur))
	}
	ones := make([]float64, size)
	for i := range ones {
		ones[i] = 1
	}
	unitWeights.Store(&ones)
	return ones[:n]
}
