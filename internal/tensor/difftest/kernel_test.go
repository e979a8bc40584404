package difftest

import (
	"fmt"
	"math"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// withBackends runs fn under every kernel backend combination the build
// supports: assembly microkernels on/off and vector transcendentals
// on/off. Settings are restored afterwards. On builds without a
// backend, SetAsmKernels/SetVecKernels(true) is a no-op, so the
// unsupported combinations just re-run the portable path.
func withBackends(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, asm := range []bool{false, true} {
		for _, vec := range []bool{false, true} {
			name := fmt.Sprintf("asm=%v/vec=%v", asm, vec)
			t.Run(name, func(t *testing.T) {
				prevAsm := tensor.SetAsmKernels(asm)
				prevVec := tensor.SetVecKernels(vec)
				defer func() {
					tensor.SetAsmKernels(prevAsm)
					tensor.SetVecKernels(prevVec)
				}()
				fn(t)
			})
		}
	}
}

// specials are the adversarial float64 values sprinkled into the
// randomized sweeps: NaN, both infinities, signed zero, denormals, and
// huge magnitudes. The blocked kernels never skip or branch on values,
// so per-element evaluation order — and therefore every rounding
// decision, signed zero, and infinity — must match the naive reference
// exactly; see sameBits for the one carve-out (colliding NaN payloads).
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	5e-324, -5e-324, 1e-310, 1e308, -1e308,
}

// fillRand fills m with uniform values and, when spice is true, a
// sprinkling of exact zeros and special values.
func fillRand(r *rng.Rand, m *tensor.Matrix, spice bool) {
	for i := range m.Data {
		m.Data[i] = r.Uniform(-2, 2)
		if !spice {
			continue
		}
		switch r.Intn(12) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = specials[r.Intn(len(specials))]
		}
	}
}

// sameBits is the kernel-equivalence relation: identical bits, except
// that any NaN matches any NaN. When an accumulator and a term are both
// NaN, which payload the addition propagates depends on the operand
// order the compiler (or assembler) happened to pick — IEEE 754 and the
// Go spec leave it unspecified — so payloads of *colliding* NaNs are
// outside the contract. What is pinned: NaN-ness itself (a NaN may
// never become a number or vice versa) and the exact bits of every
// non-NaN result, including signed zeros and infinities.
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func bitsEqualMat(t *testing.T, op string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: got %v (%#016x) want %v (%#016x)",
				op, i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func bitsEqualSlice(t *testing.T, op string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", op, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d differs bitwise: got %v want %v", op, i, got[i], want[i])
		}
	}
}

// checkMatMulFamily runs every matmul-family kernel on one (m, k, n)
// shape against the naive references, bitwise.
func checkMatMulFamily(t *testing.T, r *rng.Rand, m, k, n int, spice bool) {
	t.Helper()
	a := tensor.New(m, k)
	b := tensor.New(k, n)
	bt := tensor.New(n, k)
	fillRand(r, a, spice)
	fillRand(r, b, spice)
	fillRand(r, bt, spice)

	want := tensor.New(m, n)
	RefMatMul(want, a, b)

	got := tensor.New(m, n)
	tensor.MatMulInto(got, a, b)
	bitsEqualMat(t, "MatMulInto", got, want)

	p := tensor.Pack(b)
	got.Zero()
	tensor.MatMulPackedInto(got, a, p)
	bitsEqualMat(t, "MatMulPackedInto", got, want)

	wantT := tensor.New(m, n)
	RefMatMulT(wantT, a, bt)
	gotT := tensor.New(m, n)
	tensor.MatMulTInto(gotT, a, bt)
	bitsEqualMat(t, "MatMulTInto", gotT, wantT)

	// Attention's per-window products: a column block of a wider
	// operand, times a pack carved out of a column block of another
	// activation matrix, into a column block of a wider destination
	// whose other columns must survive. Scores (a × btᵀ through a pack
	// of the transpose) are pinned against MatMulTInto's reference,
	// context (a × b) against MatMulInto's.
	embed := func(src *tensor.Matrix, at, pad int) *tensor.Matrix {
		w := tensor.New(src.Rows, src.Cols+pad)
		fillRand(r, w, spice)
		for i := 0; i < src.Rows; i++ {
			copy(w.Row(i)[at:], src.Row(i))
		}
		return w
	}
	checkBlock := func(op string, pk *tensor.Packed, wantBlock *tensor.Matrix) {
		t.Helper()
		aw := embed(a, 2, 3)
		dw := embed(wantBlock, 3, 4)
		for i := 0; i < m; i++ { // poison the block, keep the frame
			for j := 0; j < n; j++ {
				dw.Set(i, 3+j, 12345)
			}
		}
		frame := dw.Clone()
		tensor.MatMulPackedColsInto(dw, 3, aw, 2, pk)
		for i := 0; i < m; i++ {
			bitsEqualSlice(t, op, dw.Row(i)[3:3+n], wantBlock.Row(i))
			bitsEqualSlice(t, op+" frame left", dw.Row(i)[:3], frame.Row(i)[:3])
			bitsEqualSlice(t, op+" frame right", dw.Row(i)[3+n:], frame.Row(i)[3+n:])
		}
	}
	var kt, vp tensor.Packed
	kt.PackColsT(make([]float64, tensor.PackedLen(k, n)), embed(bt, 1, 5), 1, k)
	checkBlock("scores via PackColsT", &kt, wantT)
	vp.PackCols(make([]float64, tensor.PackedLen(k, n)), embed(b, 4, 6), 4, n)
	checkBlock("context via PackCols", &vp, want)

	// Fused bias+activation, every activation kind, with a bias and
	// with none (nil bias means no bias).
	bias := tensor.New(1, n)
	fillRand(r, bias, spice)
	for _, bi := range []*tensor.Matrix{bias, nil} {
		for _, act := range []tensor.ActKind{tensor.ActNone, tensor.ActTanh} {
			wantBA := tensor.New(m, n)
			RefMatMul(wantBA, a, b)
			RefBiasAct(wantBA, bi, act)

			gotBA := tensor.New(m, n)
			tensor.MatMulPackedBiasActInto(gotBA, a, p, bi, act)
			bitsEqualMat(t, fmt.Sprintf("MatMulPackedBiasActInto(act=%d, bias=%t)", act, bi != nil), gotBA, wantBA)
		}
	}

	// The beta=1 LSTM recurrence row update.
	h := make([]float64, k)
	for i := range h {
		h[i] = r.Uniform(-2, 2)
	}
	dst := make([]float64, n)
	for i := range dst {
		dst[i] = r.Uniform(-2, 2)
	}
	wantV := append([]float64(nil), dst...)
	RefAddVecMat(wantV, h, b)
	tensor.AddVecMatInto(dst, h, b)
	bitsEqualSlice(t, "AddVecMatInto", dst, wantV)
}

// TestKernelsExhaustiveSmallShapes sweeps every shape with M,K ≤ 6 and
// N ≤ 17 (two full 8-wide panels plus a partial) through the whole
// matmul family under every backend, asserting bitwise identity with
// the naive references. Small shapes hit every tail: empty dimensions,
// sub-panel N, the 4-row asm block remainder, and the zero-padded last
// panel.
func TestKernelsExhaustiveSmallShapes(t *testing.T) {
	withBackends(t, func(t *testing.T) {
		r := rng.New(101)
		for m := 0; m <= 6; m++ {
			for k := 0; k <= 6; k++ {
				for n := 0; n <= 17; n++ {
					checkMatMulFamily(t, r, m, k, n, false)
				}
			}
		}
	})
}

// TestAddVecMatPanelBlocks sweeps the recurrence row update over
// N = 8·p + r for p = 1…9 and r = 0…7 at several depths, so the
// assembly kernel's four-panel loop, its one-panel rest and the Go
// column tail all run, alone and together (the exhaustive sweep above
// stops at N = 17, below one four-panel block).
func TestAddVecMatPanelBlocks(t *testing.T) {
	withBackends(t, func(t *testing.T) {
		r := rng.New(505)
		for _, k := range []int{0, 1, 2, 5, 10, 16} {
			for p := 1; p <= 9; p++ {
				for rem := 0; rem < 8; rem++ {
					n := 8*p + rem
					w := tensor.New(k, n)
					fillRand(r, w, p%3 == 0)
					h := make([]float64, k)
					for i := range h {
						h[i] = r.Uniform(-2, 2)
					}
					dst := make([]float64, n)
					for i := range dst {
						dst[i] = r.Uniform(-2, 2)
					}
					want := append([]float64(nil), dst...)
					RefAddVecMat(want, h, w)
					tensor.AddVecMatInto(dst, h, w)
					bitsEqualSlice(t, fmt.Sprintf("AddVecMatInto k=%d n=%d", k, n), dst, want)
				}
			}
		}
	})
}

// TestKernelsRandomLargeShapes drives randomized larger shapes — deep
// enough to cross several panels and row blocks — with special values
// (NaN, ±Inf, denormals, -0) sprinkled in.
func TestKernelsRandomLargeShapes(t *testing.T) {
	withBackends(t, func(t *testing.T) {
		r := rng.New(202)
		for trial := 0; trial < 12; trial++ {
			m := 1 + r.Intn(48)
			k := 1 + r.Intn(48)
			n := 1 + r.Intn(96)
			checkMatMulFamily(t, r, m, k, n, trial >= 4)
		}
	})
}

// TestPTMLayerShapes pins the exact shapes the PTM forward pass runs in
// production (embed dense, BLSTM input GEMMs, attention QKV, head
// output), so the hot path's own dimensions are covered by name.
func TestPTMLayerShapes(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{32, 14, 12}, // embed dense
		{32, 12, 64}, // BLSTM1 input GEMM (4*hidden columns)
		{32, 32, 40}, // BLSTM2 input GEMM
		{32, 20, 48}, // attention QKV (2*heads*dk + heads*dv), the quant twin's fused shape
		{32, 20, 32}, // attention K|V for every row of a window
		{16, 20, 16}, // attention Q for an interior window's consumed rows
		{16, 8, 32},  // per-head scores Q_h·K_hᵀ
		{16, 32, 8},  // per-head context softmax·V_h
		{16, 16, 16}, // attention output on the consumed rows
		{32, 16, 16}, // attention output
		{1, 16, 1},   // readout dense
	}
	withBackends(t, func(t *testing.T) {
		r := rng.New(303)
		for _, s := range shapes {
			checkMatMulFamily(t, r, s.m, s.k, s.n, false)
		}
	})
}
