package dense

import "fmt"

// Matrix32 is the float32 twin of Matrix, kept only as the operand of the
// float32 SpMM kernel (sparse.CSR.MulDenseInto32) that cmd/bench times as
// sparse.spmm_f32_k3_ms; no propagation path uses it. Benchmark-only
// leftover, to be dropped with that row.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // row-major, len Rows*Cols
}

// New32 allocates a zeroed rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FillFrom overwrites m with src, narrowing each entry to float32.
func (m *Matrix32) FillFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: FillFrom shape %dx%d from %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		m.Data[i] = float32(v)
	}
}
