package tensor

import "math"

// Slice transcendentals. ExpSlice, SigmoidSlice and TanhSlice compute
// math.Exp, 1/(1+math.Exp(-v)) and math.Tanh element-wise with results
// bit-identical to the scalar calls on every platform: on amd64 CPUs
// with AVX2+FMA they run the 4-lane replicas of the scalar algorithms
// (vecmath_amd64.s), everywhere else they call the scalar functions.
// They are the hot-path form used by the fused activation kernels, the
// LSTM gate kernel and SoftmaxRows — after the blocked GEMM work, the
// exact inference path spends most of its time in exp/tanh, and these
// recover most of it without giving up bit-identity. The kernels run a
// 1–3 element tail as one more 4-lane group, so the gate widths that
// are not a multiple of 4 (the second BLSTM's 10) stay vectorized.
//
// dst and x must have equal length; dst may alias x exactly (each
// 4-lane group is read in full before it is written).

// VecKernelsSupported reports whether this binary and CPU can run the
// vector transcendental kernels.
func VecKernelsSupported() bool { return vecSupported }

// SetVecKernels enables or disables the vector transcendentals and
// returns the previous setting. Enabling is a no-op on builds or CPUs
// without them. Testing and diagnostics hook — not safe to call
// concurrently with running kernels.
func SetVecKernels(enable bool) bool {
	prev := useVecKernels
	useVecKernels = enable && vecSupported
	return prev
}

func checkSliceLens(op string, dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: " + op + " length mismatch " + dimStr(len(dst), len(x)))
	}
}

// ExpSlice computes dst[i] = math.Exp(x[i]).
func ExpSlice(dst, x []float64) {
	checkSliceLens("ExpSlice", dst, x)
	i := 0
	for useVecKernels {
		i += vexpblk(dst[i:], x[i:])
		if len(x)-i < 4 {
			break // done, or a tail group the kernel left to the scalar loop
		}
		// The kernel stopped on a group with a lane outside its safe
		// range: take those four scalar, then resume the vector loop.
		for e := i + 4; i < e; i++ {
			dst[i] = math.Exp(x[i])
		}
	}
	for ; i < len(x); i++ {
		dst[i] = math.Exp(x[i])
	}
}

// SigmoidSlice computes dst[i] = Sigmoid(x[i]).
func SigmoidSlice(dst, x []float64) {
	checkSliceLens("SigmoidSlice", dst, x)
	i := 0
	for useVecKernels {
		i += vsigmoidblk(dst[i:], x[i:])
		if len(x)-i < 4 {
			break
		}
		for e := i + 4; i < e; i++ {
			dst[i] = Sigmoid(x[i])
		}
	}
	for ; i < len(x); i++ {
		dst[i] = Sigmoid(x[i])
	}
}

// TanhSlice computes dst[i] = math.Tanh(x[i]).
func TanhSlice(dst, x []float64) {
	checkSliceLens("TanhSlice", dst, x)
	if useVecKernels {
		vtanhblk(dst, x)
		return
	}
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
}

// GatesInto applies one LSTM timestep's gate math: zr is the 4H-wide
// pre-activation row (input GEMM plus recurrence, bias not yet added),
// bias the 4H-wide gate bias, c the carried cell state (updated in
// place to c_t), and h receives h_t. Gate blocks are i|f|o|g. The
// per-element expressions are exactly nn.LSTM.Forward's — one bias
// add, the same sigmoid/tanh rounding, the same c/h products in the
// same order — so the result is bit-identical to those loops (enforced
// by the difftest harness against difftest.RefGates). zr is consumed
// as scratch: the sigmoid blocks and the candidate tanh block are
// computed into it in place, then combined.
//
// With the vector kernels on, the whole step is one assembly call
// (vgates). The Go code below is the portable path, and finishes a step
// whose sigmoid pre-activations leave vgates' exact range from the
// group where vgates stopped.
func GatesInto(zr, bias, c, h []float64) {
	H := len(h)
	if len(zr) != 4*H || len(bias) != 4*H || len(c) != H {
		panic("tensor: GatesInto length mismatch")
	}
	if H == 0 {
		return
	}
	j := 0 // zr[:j] holds sigmoids, zr[j:] biased pre-activations
	if useVecKernels {
		if j = vgates(zr, bias, c, h); j < 0 {
			return
		}
	} else {
		for k, bv := range bias {
			zr[k] += bv
		}
	}
	SigmoidSlice(zr[j:3*H], zr[j:3*H])
	TanhSlice(zr[3*H:], zr[3*H:])
	gi, gf, go_, gg := zr[:H], zr[H:2*H], zr[2*H:3*H], zr[3*H:]
	for k := 0; k < H; k++ {
		c[k] = gf[k]*c[k] + gi[k]*gg[k]
	}
	TanhSlice(h, c)
	for k := 0; k < H; k++ {
		h[k] *= go_[k]
	}
}
