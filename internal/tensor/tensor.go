// Package tensor provides the dense float64 matrix operations that the
// neural-network library (internal/nn) is built on. Matrices are
// row-major and sized dynamically; all operations check shapes and panic
// on mismatch, since a shape error is always a programming bug rather
// than a runtime condition.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(shapeErr("CopyFrom", m, src))
	}
	copy(m.Data, src.Data)
}

// MatMul returns a × b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(shapeErr("MatMul", a, b))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulT returns a × bᵀ.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(shapeErr("MatMulT", a, b))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			sum := 0.0
			for k := range arow {
				sum += arow[k] * brow[k]
			}
			orow[j] = sum
		}
	}
	return out
}

// TMatMul returns aᵀ × b.
func TMatMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(shapeErr("TMatMul", a, b))
	}
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// AddTMatMul accumulates aᵀ × b into out.
func AddTMatMul(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(shapeErr("AddTMatMul", a, b))
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// Transpose returns mᵀ.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(shapeErr("AddInPlace", a, b))
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	if useAsmKernels {
		vscale(m.Data, s)
		return
	}
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Apply replaces every element x with f(x) in place.
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// SoftmaxRows applies softmax independently to each row of m in place.
// With the assembly kernels on, the row max and the subtraction of it
// (vmaxsub) and the sum and the division by it (vsumdiv) run as vector
// code around ExpSlice, each element rounding as in the loops below,
// which are the portable path.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		if useAsmKernels {
			vmaxsub(row)
			ExpSlice(row, row)
			vsumdiv(row)
			continue
		}
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range row {
			row[j] = v - maxv
		}
		ExpSlice(row, row) // bit-identical to per-element math.Exp
		sum := 0.0
		for _, e := range row {
			sum += e
		}
		if sum > 0 {
			for j := range row {
				row[j] /= sum
			}
		}
	}
}

// ConcatCols returns [a | b], the column-wise concatenation.
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(shapeErr("ConcatCols", a, b))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

// SplitCols splits m into a left matrix of ncolsLeft columns and the rest.
func SplitCols(m *Matrix, ncolsLeft int) (*Matrix, *Matrix) {
	if ncolsLeft < 0 || ncolsLeft > m.Cols {
		panic("tensor: SplitCols out of range")
	}
	l := New(m.Rows, ncolsLeft)
	r := New(m.Rows, m.Cols-ncolsLeft)
	for i := 0; i < m.Rows; i++ {
		copy(l.Row(i), m.Row(i)[:ncolsLeft])
		copy(r.Row(i), m.Row(i)[ncolsLeft:])
	}
	return l, r
}

// ReverseRows returns m with its row order reversed.
func ReverseRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(m.Rows-1-i))
	}
	return out
}

func shapeErr(op string, a, b *Matrix) string {
	return fmt.Sprintf("tensor: %s shape mismatch (%dx%d vs %dx%d)",
		op, a.Rows, a.Cols, b.Rows, b.Cols)
}

func shapeStr(m *Matrix) string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

func dimStr(a, b int) string { return fmt.Sprintf("%d vs %d", a, b) }
