package linalg

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"deepqueuenet/internal/rng"
)

func TestSolveKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveRandomResidual(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		a := Zeros(n, n)
		for i := range a {
			for j := range a[i] {
				a[i][j] = r.Normal(0, 1)
			}
			a[i][i] += float64(n) // diagonally dominant: well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Normal(0, 1)
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := MatVec(a, x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	a := [][]float64{{4, 7}, {2, 6}}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	id := Mul(a, inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(id[i][j]-want) > 1e-12 {
				t.Fatalf("A·A⁻¹ = %v", id)
			}
		}
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := [][]float64{{1, 0}, {0, -2}}
	e := Expm(a)
	if math.Abs(e[0][0]-math.E) > 1e-10 || math.Abs(e[1][1]-math.Exp(-2)) > 1e-10 {
		t.Fatalf("expm diag: %v", e)
	}
	if math.Abs(e[0][1]) > 1e-12 || math.Abs(e[1][0]) > 1e-12 {
		t.Fatalf("expm off-diag: %v", e)
	}
}

func TestExpmNilpotent(t *testing.T) {
	// exp([[0,1],[0,0]]) = [[1,1],[0,1]].
	a := [][]float64{{0, 1}, {0, 0}}
	e := Expm(a)
	want := [][]float64{{1, 1}, {0, 1}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(e[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("expm nilpotent: %v", e)
			}
		}
	}
}

func TestExpmAdditivityCommuting(t *testing.T) {
	// For commuting A: e^A·e^A = e^{2A}.
	a := [][]float64{{-3, 1}, {2, -4}}
	e1 := Expm(a)
	e2 := Expm(Scale(a, 2))
	prod := Mul(e1, e1)
	for i := range e2 {
		for j := range e2[i] {
			if math.Abs(prod[i][j]-e2[i][j]) > 1e-9 {
				t.Fatalf("expm squaring mismatch at (%d,%d): %v vs %v", i, j, prod[i][j], e2[i][j])
			}
		}
	}
}

func TestStationaryCTMC(t *testing.T) {
	// Two-state chain: 0→1 at rate 2, 1→0 at rate 1 → π = (1/3, 2/3).
	q := [][]float64{{-2, 2}, {1, -1}}
	pi, err := StationaryCTMC(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-1.0/3) > 1e-12 || math.Abs(pi[1]-2.0/3) > 1e-12 {
		t.Fatalf("pi = %v", pi)
	}
}

func TestStationaryDTMC(t *testing.T) {
	p := [][]float64{{0.9, 0.1}, {0.5, 0.5}}
	pi, err := StationaryDTMC(p)
	if err != nil {
		t.Fatal(err)
	}
	// πP = π check.
	piP := VecMat(pi, p)
	for i := range pi {
		if math.Abs(piP[i]-pi[i]) > 1e-12 {
			t.Fatalf("pi not stationary: %v -> %v", pi, piP)
		}
	}
	sum := pi[0] + pi[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pi sums to %v", sum)
	}
}

func TestMulVecHelpers(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	v := []float64{1, 1}
	mv := MatVec(a, v)
	if mv[0] != 3 || mv[1] != 7 {
		t.Fatalf("MatVec %v", mv)
	}
	vm := VecMat(v, a)
	if vm[0] != 4 || vm[1] != 6 {
		t.Fatalf("VecMat %v", vm)
	}
	if Dot(v, mv) != 10 {
		t.Fatalf("Dot %v", Dot(v, mv))
	}
}

func wantPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("want panic containing %q, got %v", substr, r)
		}
	}()
	f()
}

// TestRaggedRejected: the allocating kernels must reject ragged
// operands with a descriptive panic instead of silently mis-multiplying
// (the historical bug: Mul only checked the first row of a).
func TestRaggedRejected(t *testing.T) {
	ragged := [][]float64{{1, 2, 3}, {4, 5}, {6, 7, 8}}
	square := Eye(3)
	vec := []float64{1, 2, 3}

	wantPanic(t, "ragged", func() { Mul(ragged, square) })
	wantPanic(t, "ragged", func() { Mul(square, ragged) })
	wantPanic(t, "ragged", func() { Add(square, ragged) })
	wantPanic(t, "ragged", func() { VecMat(vec, ragged) })
	wantPanic(t, "row 1 has 2 columns", func() { MatVec(ragged, vec) })
}

// TestShapeMismatchMessages: dimension mismatches must name the shapes.
func TestShapeMismatchMessages(t *testing.T) {
	wantPanic(t, "2x3 × 2x2", func() { Mul(Zeros(2, 3), Zeros(2, 2)) })
	wantPanic(t, "2x2 + 3x2", func() { Add(Zeros(2, 2), Zeros(3, 2)) })
	wantPanic(t, "2-vector × 3x3", func() { VecMat([]float64{1, 2}, Eye(3)) })
}
