// Package linalg provides the small dense linear-algebra kernels used by
// the MAP traffic models (Appendix A) and the LDQBD queueing solver
// (Appendix B): Gaussian-elimination solves, inversion, matrix products,
// and the matrix exponential via scaling-and-squaring.
//
// Matrices are [][]float64 (row slices); these routines favour clarity
// over cache tricks — the queueing state spaces they serve are the
// bottleneck, not these kernels.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Zeros returns an n×m zero matrix.
func Zeros(n, m int) [][]float64 {
	a := make([][]float64, n)
	buf := make([]float64, n*m)
	for i := range a {
		a[i] = buf[i*m : (i+1)*m]
	}
	return a
}

// Eye returns the n×n identity.
func Eye(n int) [][]float64 {
	a := Zeros(n, n)
	for i := range a {
		a[i][i] = 1
	}
	return a
}

// Clone deep-copies a matrix.
func Clone(a [][]float64) [][]float64 {
	out := Zeros(len(a), len(a[0]))
	for i := range a {
		copy(out[i], a[i])
	}
	return out
}

// rect validates that m is a non-ragged rows×cols matrix and returns
// its shape. Every row must have exactly len(m[0]) columns.
func rect(op string, m [][]float64) (rows, cols int) {
	rows = len(m)
	if rows == 0 {
		return 0, 0
	}
	cols = len(m[0])
	for i, r := range m {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: %s: ragged matrix: row %d has %d columns, want %d", op, i, len(r), cols))
		}
	}
	return rows, cols
}

// Mul returns a×b. Both operands must be rectangular (no ragged rows)
// with matching inner dimensions; violations panic with the offending
// shape.
func Mul(a, b [][]float64) [][]float64 {
	n, ak := rect("Mul", a)
	k, m := rect("Mul", b)
	if k == 0 || ak != k {
		panic(fmt.Sprintf("linalg: Mul shape mismatch: %dx%d × %dx%d", n, ak, k, m))
	}
	out := Zeros(n, m)
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			av := a[i][p]
			//dqnlint:allow floateq exact-zero sparsity skip: a zero term contributes exactly nothing for finite operands
			if av == 0 {
				continue
			}
			brow := b[p]
			orow := out[i]
			for j := 0; j < m; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// Add returns a+b. Shapes must match exactly (no ragged rows).
func Add(a, b [][]float64) [][]float64 {
	n, m := rect("Add", a)
	bn, bm := rect("Add", b)
	if bn != n || bm != m {
		panic(fmt.Sprintf("linalg: Add shape mismatch: %dx%d + %dx%d", n, m, bn, bm))
	}
	out := Clone(a)
	for i := range b {
		for j := range b[i] {
			out[i][j] += b[i][j]
		}
	}
	return out
}

// Scale returns s·a.
func Scale(a [][]float64, s float64) [][]float64 {
	out := Clone(a)
	for i := range out {
		for j := range out[i] {
			out[i][j] *= s
		}
	}
	return out
}

// VecMat returns the row vector v×a. a must be rectangular with
// len(v) rows.
func VecMat(v []float64, a [][]float64) []float64 {
	n, m := rect("VecMat", a)
	if len(v) != n {
		panic(fmt.Sprintf("linalg: VecMat shape mismatch: %d-vector × %dx%d", len(v), n, m))
	}
	out := make([]float64, m)
	for i, vi := range v {
		//dqnlint:allow floateq exact-zero sparsity skip: a zero term contributes exactly nothing for finite operands
		if vi == 0 {
			continue
		}
		for j, av := range a[i] {
			out[j] += vi * av
		}
	}
	return out
}

// MatVec returns a×v as a column vector. Every row of a must have
// exactly len(v) columns.
func MatVec(a [][]float64, v []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		if len(a[i]) != len(v) {
			panic(fmt.Sprintf("linalg: MatVec shape mismatch: row %d has %d columns, want %d", i, len(a[i]), len(v)))
		}
		s := 0.0
		for j, av := range a[i] {
			s += av * v[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns vᵀw.
func Dot(v, w []float64) float64 {
	if len(v) != len(w) {
		panic("linalg: Dot shape mismatch")
	}
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Solve solves A·x = b with partial-pivot Gaussian elimination. A and b
// are not modified.
func Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(a[0]) != n || len(b) != n {
		return nil, errors.New("linalg: Solve needs square A matching b")
	}
	m := Clone(a)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return nil, errors.New("linalg: singular matrix")
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			//dqnlint:allow floateq exact-zero multiplier skip: eliminating with f=0 is the identity row operation
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// Inverse returns A⁻¹ by Gauss–Jordan elimination with partial pivoting
// on the augmented system (one O(n³) factorization, not n solves).
func Inverse(a [][]float64) ([][]float64, error) {
	n := len(a)
	if n == 0 || len(a[0]) != n {
		return nil, errors.New("linalg: Inverse needs a square matrix")
	}
	m := Clone(a)
	inv := Eye(n)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return nil, errors.New("linalg: singular matrix")
		}
		m[col], m[piv] = m[piv], m[col]
		inv[col], inv[piv] = inv[piv], inv[col]
		scale := 1 / m[col][col]
		mrow, irow := m[col], inv[col]
		for j := 0; j < n; j++ {
			mrow[j] *= scale
			irow[j] *= scale
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			//dqnlint:allow floateq exact-zero multiplier skip: eliminating with f=0 is the identity row operation
			if f == 0 {
				continue
			}
			mr, ir := m[r], inv[r]
			for j := 0; j < n; j++ {
				mr[j] -= f * mrow[j]
				ir[j] -= f * irow[j]
			}
		}
	}
	return inv, nil
}

// StationaryCTMC returns the stationary probability vector π of a CTMC
// generator Q (row sums 0): π·Q = 0, π·1 = 1.
func StationaryCTMC(q [][]float64) ([]float64, error) {
	n := len(q)
	// Solve Qᵀπᵀ = 0 with the normalization replacing the last equation.
	a := Zeros(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = q[j][i]
		}
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1
	return Solve(a, b)
}

// StationaryDTMC returns the stationary probability vector of a
// stochastic matrix P: π·P = π, π·1 = 1.
func StationaryDTMC(p [][]float64) ([]float64, error) {
	n := len(p)
	a := Zeros(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = p[j][i]
		}
		a[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1
	return Solve(a, b)
}

// Expm returns e^A by scaling-and-squaring with a Taylor series, adequate
// for the small MAP generators used here.
func Expm(a [][]float64) [][]float64 {
	n := len(a)
	// Scale so ‖A/2^s‖∞ ≤ 0.5.
	norm := 0.0
	for i := range a {
		row := 0.0
		for j := range a[i] {
			row += math.Abs(a[i][j])
		}
		if row > norm {
			norm = row
		}
	}
	s := 0
	for norm > 0.5 {
		norm /= 2
		s++
	}
	b := Scale(a, math.Pow(0.5, float64(s)))
	// Taylor to machine precision for ‖B‖ ≤ 0.5.
	out := Eye(n)
	term := Eye(n)
	for k := 1; k <= 24; k++ {
		term = Scale(Mul(term, b), 1/float64(k))
		out = Add(out, term)
	}
	for i := 0; i < s; i++ {
		out = Mul(out, out)
	}
	return out
}
