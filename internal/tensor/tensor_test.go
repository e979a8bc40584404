package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"deepqueuenet/internal/rng"
)

func randMat(r *rng.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

func matEq(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !matEq(got, want, 0) {
		t.Fatalf("got %v", got.Data)
	}
}

func TestMatMulTConsistency(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n, m, k := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMat(r, n, k)
		b := randMat(r, m, k)
		return matEq(MatMulT(a, b), MatMul(a, Transpose(b)), 1e-12)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTMatMulConsistency(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n, m, k := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMat(r, k, n)
		b := randMat(r, k, m)
		return matEq(TMatMul(a, b), MatMul(Transpose(a), b), 1e-12)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddTMatMulAccumulates(t *testing.T) {
	r := rng.New(4)
	a := randMat(r, 4, 3)
	b := randMat(r, 4, 5)
	out := randMat(r, 3, 5)
	want := out.Clone()
	AddInPlace(want, TMatMul(a, b))
	AddTMatMul(out, a, b)
	if !matEq(out, want, 1e-12) {
		t.Fatal("AddTMatMul mismatch")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(5)
	m := randMat(r, 4, 7)
	if !matEq(Transpose(Transpose(m)), m, 0) {
		t.Fatal("transpose twice is not identity")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {1000, 1000, 1000}})
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Monotone within row.
	if !(m.At(0, 0) < m.At(0, 1) && m.At(0, 1) < m.At(0, 2)) {
		t.Fatal("softmax not monotone")
	}
	// Large equal inputs must not overflow.
	if math.Abs(m.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatalf("softmax overflow handling: %v", m.At(1, 0))
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		rows := 1 + r.Intn(5)
		ca, cb := 1+r.Intn(5), 1+r.Intn(5)
		a := randMat(r, rows, ca)
		b := randMat(r, rows, cb)
		l, rr := SplitCols(ConcatCols(a, b), ca)
		return matEq(l, a, 0) && matEq(rr, b, 0)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestReverseRows(t *testing.T) {
	m := FromRows([][]float64{{1}, {2}, {3}})
	rev := ReverseRows(m)
	if rev.At(0, 0) != 3 || rev.At(2, 0) != 1 {
		t.Fatalf("reverse wrong: %v", rev.Data)
	}
	if !matEq(ReverseRows(rev), m, 0) {
		t.Fatal("double reverse is not identity")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulAssociativity(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(4)
		a := randMat(r, n, n)
		b := randMat(r, n, n)
		c := randMat(r, n, n)
		return matEq(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)), 1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
