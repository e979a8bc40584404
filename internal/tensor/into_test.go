package tensor

import (
	"math"
	"strings"
	"testing"

	"deepqueuenet/internal/rng"
)

// sparseMat draws a seeded normal matrix with exact zeros sprinkled in
// so the sparsity-skip branches run.
func sparseMat(r *rng.Rand, rows, cols int) *Matrix {
	m := randMat(r, rows, cols)
	for i := range m.Data {
		if r.Intn(5) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

func bitsEqual(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: got %v want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// kernelShapes covers degenerate and general shapes for the property
// sweeps.
var kernelShapes = []struct{ n, k, m int }{
	{1, 1, 1}, {1, 5, 3}, {4, 1, 6}, {7, 3, 1}, {5, 8, 6}, {16, 15, 12},
}

// TestIntoKernelsMatchAllocating sweeps random shapes and seeds,
// checking every *Into kernel against its allocating counterpart
// bit-for-bit (stronger than the 1-ULP requirement).
func TestIntoKernelsMatchAllocating(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		for _, s := range kernelShapes {
			a := sparseMat(r, s.n, s.k)
			b := sparseMat(r, s.k, s.m)
			bt := sparseMat(r, s.m, s.k)

			dst := New(s.n, s.m)
			MatMulInto(dst, a, b)
			bitsEqual(t, "MatMulInto", dst, MatMul(a, b))

			dt := New(s.n, s.m)
			MatMulTInto(dt, a, bt)
			bitsEqual(t, "MatMulTInto", dt, MatMulT(a, bt))
		}
	}
}

// TestIntoAliasingSafe: the element-wise slice kernels document dst == x
// as safe; prove it.
func TestIntoAliasingSafe(t *testing.T) {
	a := sparseMat(rng.New(9), 6, 5)
	for _, k := range []struct {
		name string
		f    func(dst, x []float64)
	}{{"ExpSlice", ExpSlice}, {"SigmoidSlice", SigmoidSlice}, {"TanhSlice", TanhSlice}} {
		want := New(a.Rows, a.Cols)
		k.f(want.Data, a.Data)
		dst := a.Clone()
		k.f(dst.Data, dst.Data)
		bitsEqual(t, k.name+"(dst==x)", dst, want)
	}
}

// TestIntoAliasingRejected: kernels that read their inputs after
// writing dst must reject dst == src with the documented panic.
func TestIntoAliasingRejected(t *testing.T) {
	r := rng.New(11)
	sq := sparseMat(r, 4, 4)
	other := sparseMat(r, 4, 4)
	cases := []struct {
		name string
		call func()
	}{
		{"MatMulInto dst==a", func() { MatMulInto(sq, sq, other) }},
		{"MatMulInto dst==b", func() { MatMulInto(sq, other, sq) }},
		{"MatMulTInto dst==a", func() { MatMulTInto(sq, sq, other) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.Contains(msg, "aliases") {
					t.Fatalf("want alias panic, got %v", msg)
				}
			}()
			tc.call()
		})
	}
}

// TestArenaReuse checks the grow-only contract: after one warm cycle
// the arena serves identical demand without touching the heap, and
// overflow allocations are consolidated at Reset.
func TestArenaReuse(t *testing.T) {
	a := NewArena()
	cycle := func() {
		a.Reset()
		m := a.NewMatrixZero(8, 8)
		v := a.AllocZero(32)
		m.Data[0] = 1
		v[0] = 1
	}
	cycle() // warm-up sizes the slab
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("warmed arena allocated %.0f times per cycle; want 0", allocs)
	}
	if a.Cap() < 8*8+32 {
		t.Fatalf("arena capacity %d below observed demand %d", a.Cap(), 8*8+32)
	}
}

// TestArenaMatrixDisjoint: allocations within one cycle must never
// overlap, and NewMatrix data is writable across the whole matrix.
func TestArenaMatrixDisjoint(t *testing.T) {
	a := NewArena()
	for cycle := 0; cycle < 2; cycle++ {
		a.Reset()
		m1 := a.NewMatrixZero(3, 4)
		m2 := a.NewMatrixZero(2, 5)
		for i := range m1.Data {
			m1.Data[i] = 1
		}
		for _, v := range m2.Data {
			if v != 0 {
				t.Fatal("arena allocations overlap: writing m1 changed m2")
			}
		}
	}
}
