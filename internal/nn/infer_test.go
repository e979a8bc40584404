package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// inferTestModel exercises every built-in layer kind, including the
// dense+tanh and attention+tanh fusion peepholes.
func inferTestModel() *Sequential {
	r := rng.New(42)
	return NewSequential(
		NewDense(6, 12, r),
		NewTanh(),
		NewBLSTM(12, 8, r),
		NewMultiHeadSelfAttention(16, 10, 2, 4, 4, r),
		NewTanh(),
		NewDense(10, 5, r),
		NewTanh(),
		NewDense(5, 1, r),
	)
}

// sparseInput draws a normal input and zeroes every 7th element so the
// zero-multiplicand cases of the kernels are exercised.
func sparseInput(rows, cols int, seed uint64) *tensor.Matrix {
	x := randInput(seed, rows, cols)
	for i := 0; i < len(x.Data); i += 7 {
		x.Data[i] = 0
	}
	return x
}

// withBackends runs fn under every kernel backend combination the build
// supports (assembly microkernels × vector transcendentals); under
// -tags purego both are no-ops and the portable path runs four times.
func withBackends(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, asm := range []bool{false, true} {
		for _, vec := range []bool{false, true} {
			t.Run(fmt.Sprintf("asm=%v/vec=%v", asm, vec), func(t *testing.T) {
				prevAsm, prevVec := tensor.SetAsmKernels(asm), tensor.SetVecKernels(vec)
				defer func() {
					tensor.SetAsmKernels(prevAsm)
					tensor.SetVecKernels(prevVec)
				}()
				fn(t)
			})
		}
	}
}

// rowRangeCase is one model shape of the row contract: where the last
// row-mixing layer sits decides how much of a window the range saves.
type rowRangeCase struct {
	name string
	m    *Sequential
	T    int
}

func rowRangeModels() []rowRangeCase {
	r := rng.New(7)
	ptmArch := func(in, heads, dk, dv int) *Sequential {
		return NewSequential(
			NewDense(in, 12, r), NewTanh(),
			NewBLSTM(12, 16, r), NewBLSTM(32, 10, r),
			NewMultiHeadSelfAttention(20, 16, heads, dk, dv, r), NewTanh(),
			NewDense(16, 1, r))
	}
	return []rowRangeCase{
		{"shipped architecture", ptmArch(15, 2, 8, 8), 32},
		{"T not a multiple of 8", ptmArch(15, 2, 8, 8), 13},
		{"DV 5, DK 3, 3 heads", ptmArch(9, 3, 3, 5), 11},
		{"DV 12 (two value panels)", ptmArch(9, 1, 8, 12), 10},
		{"every layer kind", inferTestModel(), 16},
		{"recurrence behind attention", NewSequential(
			NewMultiHeadSelfAttention(6, 8, 2, 4, 4, r), NewTanh(),
			NewBLSTM(8, 5, r), NewDense(10, 2, r)), 9},
		{"prefix ends before attention", NewSequential(
			NewDense(6, 8, r), NewTanh(), NewDense(8, 8, r),
			NewMultiHeadSelfAttention(8, 8, 2, 4, 4, r), NewTanh(),
			NewBLSTM(8, 5, r), NewDense(10, 1, r)), 12},
		{"row-wise layers before the blstm", NewSequential(
			NewDense(6, 12, r), NewTanh(), NewDense(12, 12, r), NewTanh(),
			NewBLSTM(12, 6, r), NewMultiHeadSelfAttention(12, 8, 2, 4, 4, r),
			NewDense(8, 1, r)), 11},
		{"no row-mixing layer", NewSequential(
			NewDense(6, 8, r), NewTanh(), NewDense(8, 8, r), NewTanh(), NewDense(8, 3, r)), 9},
	}
}

// TestInferRowRangeBitwise is the row contract: for every range
// 0 ≤ lo < hi ≤ T, Infer returns exactly rows [lo, hi) of Forward — the
// exact path to the bit against the training pass, the quantized twin
// to the bit against its own full-range result — under every backend.
// The golden traces (generated before any of the inference paths
// existed) hang off this equivalence.
func TestInferRowRangeBitwise(t *testing.T) {
	withBackends(t, func(t *testing.T) {
		for _, tc := range rowRangeModels() {
			x := sparseInput(tc.T, tc.m.Layers[0].Spec().In, 100)
			want := tc.m.Forward(x)
			q, err := Quantize(tc.m)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			fx := tensor.NewF32(x.Rows, x.Cols)
			fx.CopyFromF64(x)
			fa := tensor.NewArenaF32()
			qwant := q.Infer(fx, 0, want.Rows, fa)
			qfull := append([]float32(nil), qwant.Data...)

			a, pk := tensor.NewArena(), NewPacks()
			if want.Rows != tc.T {
				t.Fatalf("%s: Forward returned %d rows, want %d", tc.name, want.Rows, tc.T)
			}
			for lo := 0; lo < tc.T; lo++ {
				for hi := lo + 1; hi <= tc.T; hi++ {
					a.Reset()
					got := tc.m.Infer(x, lo, hi, a, pk)
					if got.Rows != hi-lo || got.Cols != want.Cols {
						t.Fatalf("%s [%d,%d): shape %dx%d, want %dx%d", tc.name, lo, hi, got.Rows, got.Cols, hi-lo, want.Cols)
					}
					for i, v := range got.Data {
						if w := want.Data[lo*want.Cols+i]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("%s [%d,%d): element %d differs bitwise: infer %v forward %v", tc.name, lo, hi, i, v, w)
						}
					}
					fa.Reset()
					qgot := q.Infer(fx, lo, hi, fa)
					if qgot.Rows != hi-lo || qgot.Cols != want.Cols {
						t.Fatalf("%s quant [%d,%d): shape %dx%d", tc.name, lo, hi, qgot.Rows, qgot.Cols)
					}
					for i, v := range qgot.Data {
						if w := qfull[lo*want.Cols+i]; math.Float32bits(v) != math.Float32bits(w) {
							t.Fatalf("%s quant [%d,%d): element %d differs bitwise: %v vs full-range %v", tc.name, lo, hi, i, v, w)
						}
					}
				}
			}
		}
	})
}

// TestInferWindowMatchesInfer is the stream-prefix contract: a prefix
// computed once over a whole sequence, in two row blocks, and a window
// run from it at any start — rows past the sequence end repeating its
// last row — give exactly what Infer gives on that window's rows.
func TestInferWindowMatchesInfer(t *testing.T) {
	withBackends(t, func(t *testing.T) {
		for _, tc := range rowRangeModels() {
			in := tc.m.Layers[0].Spec().In
			for _, n := range []int{1, tc.T - 1, 2*tc.T + 3} {
				if n < 1 {
					continue
				}
				seq := sparseInput(n, in, 200+uint64(n))
				a, pk := tensor.NewArena(), NewPacks()
				pre := tensor.New(n, tc.m.PrefixCols(in))
				cut := n / 3
				for _, blk := range [][2]int{{0, cut}, {cut, n}} {
					a.Reset()
					tc.m.InferPrefix(a.Rows(pre, blk[0], blk[1]), a.Rows(seq, blk[0], blk[1]), a, pk)
				}
				for _, start := range []int{0, max(0, n-tc.T), n / 2, n - 1} {
					win := tensor.New(tc.T, in)
					for r := 0; r < tc.T; r++ {
						copy(win.Row(r), seq.Row(min(start+r, n-1)))
					}
					for _, rg := range [][2]int{{0, tc.T}, {tc.T / 2, tc.T}, {0, 1}} {
						a.Reset()
						want := tc.m.Infer(win, rg[0], rg[1], a, pk).Clone()
						a.Reset()
						got := tc.m.InferWindow(pre, start, tc.T, rg[0], rg[1], a, pk)
						if got.Rows != want.Rows || got.Cols != want.Cols {
							t.Fatalf("%s n=%d start=%d %v: shape %dx%d, want %dx%d", tc.name, n, start, rg, got.Rows, got.Cols, want.Rows, want.Cols)
						}
						for i, v := range got.Data {
							if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
								t.Fatalf("%s n=%d start=%d %v: element %d differs bitwise: window %v infer %v", tc.name, n, start, rg, i, v, want.Data[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestInferRejectsBadRange: a range outside the rows the model produces
// is a caller bug and panics instead of reading past a window.
func TestInferRejectsBadRange(t *testing.T) {
	m := inferTestModel()
	x := sparseInput(16, 6, 1)
	for _, rg := range [][2]int{{-1, 4}, {5, 4}, {0, 17}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Infer(%d, %d) on 16 rows did not panic", rg[0], rg[1])
				}
			}()
			m.Infer(x, rg[0], rg[1], tensor.NewArena(), NewPacks())
		}()
	}
}

// TestInferLayerCoverage fails when a built-in layer kind is missing the
// arena fast path, which would silently fall back to cache-writing
// Forward and break model sharing across shards.
func TestInferLayerCoverage(t *testing.T) {
	for _, l := range inferTestModel().Layers {
		switch l.(type) {
		case *Dense, *MultiHeadSelfAttention, inferLayer:
		default:
			t.Errorf("layer %T does not implement the cache-free infer path", l)
		}
	}
}

// TestInferSharedModelConcurrent: one model, read-only, under several
// goroutines that each own an arena and a pack cache (the arrangement
// of ptm.PredictStream's chunk workers); run with -race.
func TestInferSharedModelConcurrent(t *testing.T) {
	m := inferTestModel()
	xs := make([]*tensor.Matrix, 12)
	want := make([]*tensor.Matrix, len(xs))
	for i := range xs {
		xs[i] = sparseInput(16, 6, 300+uint64(i))
		want[i] = m.Forward(xs[i]).Clone()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		//dqnlint:allow goguard concurrency hammer: a worker panic crashes the test binary, the failure signal this race test wants
		go func(w int) {
			defer wg.Done()
			a, pk := tensor.NewArena(), NewPacks()
			for i := w; i < len(xs); i += 4 {
				a.Reset()
				got := m.Infer(xs[i], 2, 14, a, pk)
				for j, v := range got.Data {
					if math.Float64bits(v) != math.Float64bits(want[i].Data[2+j]) {
						t.Errorf("sample %d element %d differs bitwise", i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInferZeroAllocs pins the steady-state allocation count of a
// window at exactly zero, exact and quantized. AllocsPerRun performs a
// warm-up call first, which is what packs the weights and fills the
// arena to peak demand.
func TestInferZeroAllocs(t *testing.T) {
	m := inferTestModel()
	x := sparseInput(16, 6, 1)
	a, pk := tensor.NewArena(), NewPacks()
	if allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		m.Infer(x, 4, 12, a, pk)
	}); allocs != 0 {
		t.Fatalf("Infer allocated %.0f times per window; want 0", allocs)
	}
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	fx := tensor.NewF32(x.Rows, x.Cols)
	fx.CopyFromF64(x)
	fa := tensor.NewArenaF32()
	if allocs := testing.AllocsPerRun(20, func() {
		fa.Reset()
		q.Infer(fx, 4, 12, fa)
	}); allocs != 0 {
		t.Fatalf("quantized Infer allocated %.0f times per window; want 0", allocs)
	}
}
