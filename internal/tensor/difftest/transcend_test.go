package difftest

import (
	"math"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// transcendInputs builds the adversarial float64 input set for the
// slice transcendentals: broad random magnitudes plus every boundary
// the vector kernels branch on — the |x| ≤ 704 exp safety bound, the
// tanh 0.625 polynomial/exp split and its ±1 saturation threshold,
// signed zero, infinities, NaN, denormals, and overflow-region values.
func transcendInputs() []float64 {
	r := rng.New(1)
	xs := make([]float64, 0, 100100)
	for i := 0; i < 100000; i++ {
		switch i % 5 {
		case 0:
			xs = append(xs, r.Uniform(-10, 10))
		case 1:
			xs = append(xs, r.Uniform(-750, 750))
		case 2:
			xs = append(xs, r.Uniform(-1, 1))
		case 3:
			xs = append(xs, r.Uniform(-5e-4, 5e-4))
		default:
			xs = append(xs, r.Uniform(-50, 50))
		}
	}
	return append(xs, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		709.78, -745.1, 704.0001, -704.0001, 704.0, -704.0,
		44.014845965556524, -44.014845965556524, 0.625, -0.625,
		5e-324, -5e-324, 1e-310, 1e308, -1e308, 88.02, -88.02)
}

// TestSliceTranscendentalsBitIdentical proves ExpSlice, SigmoidSlice,
// and TanhSlice are bit-identical to per-element math.Exp / Sigmoid /
// math.Tanh on every input class, with the vector kernels both enabled
// and disabled. This is the contract that lets the fused BLSTM gate
// kernel and SoftmaxRows use the slice forms without perturbing the
// golden traces.
func TestSliceTranscendentalsBitIdentical(t *testing.T) {
	xs := transcendInputs()
	withBackends(t, func(t *testing.T) {
		dst := make([]float64, len(xs))
		tensor.ExpSlice(dst, xs)
		for i, x := range xs {
			if want := math.Exp(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("ExpSlice(%g): got %#016x want %#016x", x, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
		tensor.SigmoidSlice(dst, xs)
		for i, x := range xs {
			if want := tensor.Sigmoid(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("SigmoidSlice(%g): got %#016x want %#016x", x, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
		tensor.TanhSlice(dst, xs)
		for i, x := range xs {
			if want := math.Tanh(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("TanhSlice(%g): got %#016x want %#016x", x, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
	})
}

// TestSliceTranscendentalsShortLengths sweeps lengths 1–11 — every
// remainder 1–3 alone and behind one and two full 4-lane groups — over
// windows that put each special value (out-of-range exp arguments, NaN,
// infinities, signed zero, denormals) into the remainder positions and
// into the groups before them. The hidden width of the trained model's
// second BLSTM (10) lives in this range, so the kernels' gathered tail
// group (and the scalar fallback behind an unsafe tail lane) must match
// the scalar functions bit for bit under every asm × vec combination.
func TestSliceTranscendentalsShortLengths(t *testing.T) {
	all := transcendInputs()
	xs := all[len(all)-64:] // the specials and the random values before them
	withBackends(t, func(t *testing.T) {
		for n := 1; n <= 11; n++ {
			for start := 0; start+n <= len(xs); start++ {
				for _, op := range transcendOps {
					checkScalarBits(t, op.name, op.slice, op.scalar, xs[start:start+n])
				}
			}
		}
	})
}

// transcendOps are the slice transcendentals with their scalar twins.
var transcendOps = []struct {
	name   string
	slice  func(dst, x []float64)
	scalar func(float64) float64
}{
	{"ExpSlice", tensor.ExpSlice, math.Exp},
	{"SigmoidSlice", tensor.SigmoidSlice, tensor.Sigmoid},
	{"TanhSlice", tensor.TanhSlice, math.Tanh},
}

// checkScalarBits runs slice on in and asserts every lane has exactly
// the bits of scalar on it.
func checkScalarBits(t *testing.T, name string, slice func(dst, x []float64), scalar func(float64) float64, in []float64) {
	t.Helper()
	dst := make([]float64, len(in))
	slice(dst, in)
	for i, x := range in {
		if want := scalar(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s len %d lane %d (%g, %#016x): got %#016x want %#016x",
				name, len(in), i, x, math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
}

// TestTanhExpBranchPruning pins the vector tanh's group-level skip of
// its exp branch. Groups where exactly one lane has |x| ≥ 0.625 (at
// each of the four lane positions, including the ±1 saturation, ±Inf
// and the 0.625 boundary itself) must still take that branch for that
// lane; groups where no lane does — built from ±0, NaN, subnormals,
// the largest value below 0.625 and ordinary small values — skip it
// and must still match math.Tanh bit for bit. The groups run back to
// back in one slice, so a group that skips follows one that did not
// and vice versa, and each below-threshold group also runs as a 1–3
// element tail.
func TestTanhExpBranchPruning(t *testing.T) {
	below := math.Nextafter(0.625, 0)
	small := []float64{0, math.Copysign(0, -1), math.NaN(), 5e-324, -5e-324, 1e-310,
		-2.2250738585072014e-308, below, -below, 0.3}
	large := []float64{0.625, -0.625, math.Nextafter(0.625, 1), 1.5, -3, 20,
		44.014845965556524, 44.02, -50, 1e308, math.Inf(1), math.Inf(-1)}
	var oneLarge, allSmall []float64
	for pos := 0; pos < 4; pos++ {
		for i, big := range large {
			g := [4]float64{0.1, -0.2, small[i%len(small)], 0.4}
			g[pos] = big
			oneLarge = append(oneLarge, g[:]...)
			// and an all-below group after it
			oneLarge = append(oneLarge, small[(i+pos)%len(small)], 0.2, -0.4, below)
		}
	}
	n := len(small)
	for i := 0; i < n*n*n*n; i++ {
		allSmall = append(allSmall, small[i%n], small[i/n%n], small[i/(n*n)%n], small[i/(n*n*n)])
	}
	withBackends(t, func(t *testing.T) {
		checkScalarBits(t, "TanhSlice one lane ≥ 0.625", tensor.TanhSlice, math.Tanh, oneLarge)
		checkScalarBits(t, "TanhSlice all lanes < 0.625", tensor.TanhSlice, math.Tanh, allSmall)
		for g := 0; g < len(allSmall); g += 4 {
			for r := 1; r <= 3; r++ {
				checkScalarBits(t, "TanhSlice tail < 0.625", tensor.TanhSlice, math.Tanh, allSmall[g:g+r])
			}
		}
	})
}

// TestSliceTailBehindUnsafeGroup: a 1–3 element tail after a full group
// holding one lane outside the exp kernels' |x| ≤ 704 range. The
// kernel stops on that group, the wrapper takes it scalar and resumes
// the vector path on the tail, which may itself hold an unsafe lane.
func TestSliceTailBehindUnsafeGroup(t *testing.T) {
	unsafe := []float64{750, -750, 709.78, -745.1, 704.0001, math.Inf(1), math.Inf(-1), math.NaN(), 1e308}
	tails := []float64{0.5, -2, 705, math.NaN(), math.Copysign(0, -1), 30, 0.5, -705}
	withBackends(t, func(t *testing.T) {
		for _, op := range transcendOps[:2] { // Exp and Sigmoid: the kernels with an unsafe range
			for _, u := range unsafe {
				for pos := 0; pos < 4; pos++ {
					group := []float64{1, -1, 0.25, -700}
					group[pos] = u
					for r := 1; r <= 3; r++ {
						for s := 0; s+r <= len(tails); s++ {
							in := append(group[:4:4], tails[s:s+r]...)
							checkScalarBits(t, op.name, op.slice, op.scalar, in)
						}
					}
				}
			}
		}
	})
}

// TestSliceTranscendentalsAliasInPlace: dst may alias x exactly; the
// in-place form must produce the same bits as the out-of-place form.
func TestSliceTranscendentalsAliasInPlace(t *testing.T) {
	xs := transcendInputs()[:4096]
	withBackends(t, func(t *testing.T) {
		out := make([]float64, len(xs))
		tensor.TanhSlice(out, xs)
		inPlace := append([]float64(nil), xs...)
		tensor.TanhSlice(inPlace, inPlace)
		bitsEqualSlice(t, "TanhSlice in-place", inPlace, out)

		tensor.ExpSlice(out, xs)
		inPlace = append([]float64(nil), xs...)
		tensor.ExpSlice(inPlace, inPlace)
		bitsEqualSlice(t, "ExpSlice in-place", inPlace, out)
	})
}

// relErr32 is |got-want|/|want| with want taken from float64 truth.
func relErr32(got float32, want float64) float64 {
	if want == 0 {
		return math.Abs(float64(got))
	}
	return math.Abs(float64(got)-want) / math.Abs(want)
}

// TestFastF32Budgets bounds the quantized path's fast float32
// transcendentals against float64 truth. These kernels are accuracy-
// gated, not bit-gated: the budgets below are a few float32 ULP for
// exp, and absolute 1e-6-scale for the saturating sigmoid/tanh —
// comfortably inside the int8 weight-quantization error the golden
// accuracy gates already allow for. Both the 8-lane vector form and the
// scalar tail must meet the same budget (they may differ from each
// other by low-order ULPs).
func TestFastF32Budgets(t *testing.T) {
	r := rng.New(5)
	xs := make([]float32, 0, 50020)
	for i := 0; i < 50000; i++ {
		switch i % 3 {
		case 0:
			xs = append(xs, float32(r.Uniform(-10, 10)))
		case 1:
			xs = append(xs, float32(r.Uniform(-80, 80)))
		default:
			xs = append(xs, float32(r.Uniform(-0.5, 0.5)))
		}
	}
	xs = append(xs, 0, 1, -1, 9.0001, -9.0001, 88.4, -86.9, 100, -100,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()))
	withBackends(t, func(t *testing.T) {
		dst := make([]float32, len(xs))
		tensor.FastExpSlice(dst, xs)
		for i, x := range xs {
			fx := float64(x)
			got := dst[i]
			switch {
			case math.IsNaN(fx):
				if got == got {
					t.Fatalf("FastExp(NaN) = %v, want NaN", got)
				}
			case fx > 88.5:
				if !math.IsInf(float64(got), 1) {
					t.Fatalf("FastExp(%g) = %v, want +Inf", fx, got)
				}
			case fx < -87:
				if got != 0 {
					t.Fatalf("FastExp(%g) = %v, want 0", fx, got)
				}
			default:
				// The range reduction computes 2^t for t = fl(x·log2e), so
				// the relative error grows with |x|: |t|·eps32·ln2 from the
				// rounding of t, plus a few ULP from the polynomial. Budget
				// both terms explicitly.
				budget := 5e-7 + 1e-7*math.Abs(fx)
				if e := relErr32(got, math.Exp(fx)); e > budget {
					t.Fatalf("FastExp(%g): rel err %.3g > %.3g (got %v)", fx, e, budget, got)
				}
			}
		}
		tensor.FastSigmoidSlice(dst, xs)
		for i, x := range xs {
			fx := float64(x)
			if math.IsNaN(fx) {
				continue // NaN propagates through the exp; sign handled there
			}
			want := 1 / (1 + math.Exp(-fx))
			if d := math.Abs(float64(dst[i]) - want); d > 1e-6 {
				t.Fatalf("FastSigmoid(%g): abs err %.3g > 1e-6 (got %v want %v)", fx, d, dst[i], want)
			}
		}
		tensor.FastTanhSlice(dst, xs)
		for i, x := range xs {
			fx := float64(x)
			if math.IsNaN(fx) {
				if dst[i] == dst[i] {
					t.Fatalf("FastTanh(NaN) = %v, want NaN", dst[i])
				}
				continue
			}
			want := math.Tanh(fx)
			if d := math.Abs(float64(dst[i]) - want); d > 1e-6 {
				t.Fatalf("FastTanh(%g): abs err %.3g > 1e-6 (got %v want %v)", fx, d, dst[i], want)
			}
		}
	})
}
