// Package difftest is the differential kernel-equivalence layer gating
// the blocked GEMM, fused-gate, and vector-transcendental rewrites of
// internal/tensor and internal/nn.
//
// It holds the *naive reference kernels*: textbook triple loops with no
// zero-skip, no tiling, no assembly, and each output element's k terms
// accumulated in ascending order — the semantics every optimized kernel
// promises to reproduce bit for bit on the exact float64 path. The
// tests in this package sweep exhaustive small shapes and randomized
// large shapes (including NaN, ±Inf, and denormal values) through every
// backend combination (assembly microkernels on/off via
// tensor.SetAsmKernels, vector transcendentals on/off via
// tensor.SetVecKernels) and assert bitwise identity against these
// references; the fuzz targets extend the same oracle to
// adversarially-chosen shapes and values.
//
// The quantized path is *not* bit-gated — FMA and fast float32
// transcendentals are allowed there — so its tests here assert bounded
// error (quantization round-trip, fast-math ULP budgets) instead, and
// the end-to-end accuracy gates live with the golden scenarios at the
// repository root.
package difftest

import (
	"math"

	"deepqueuenet/internal/tensor"
)

// RefMatMul computes dst = a × b the naive way: for each output
// element, k ascending, one multiply and one add per term, no skips.
func RefMatMul(dst, a, b *tensor.Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("difftest: RefMatMul shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, sum)
		}
	}
}

// RefMatMulT computes dst = a × bᵀ naively (k ascending per element).
func RefMatMulT(dst, a, b *tensor.Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("difftest: RefMatMulT shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			dst.Set(i, j, sum)
		}
	}
}

// RefAddVecMat computes dst += h × w naively: each dst element keeps
// its starting value and accumulates its k terms in ascending order.
func RefAddVecMat(dst, h []float64, w *tensor.Matrix) {
	if w.Rows != len(h) || w.Cols != len(dst) {
		panic("difftest: RefAddVecMat shape mismatch")
	}
	for j := range dst {
		c := dst[j]
		for k := range h {
			c += h[k] * w.At(k, j)
		}
		dst[j] = c
	}
}

// RefBiasAct applies the reference bias-add + activation to dst row by
// row: the scalar math.Exp/math.Tanh forms the fused kernels must
// reproduce exactly. bias may be nil.
func RefBiasAct(dst *tensor.Matrix, bias *tensor.Matrix, act tensor.ActKind) {
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		if bias != nil {
			for j, bv := range bias.Data {
				row[j] += bv
			}
		}
		for j, v := range row {
			row[j] = refAct(v, act)
		}
	}
}

func refAct(v float64, act tensor.ActKind) float64 {
	if act == tensor.ActTanh {
		return math.Tanh(v)
	}
	return v
}

// RefGates is the scalar reference of tensor.GatesInto: per element, bias
// add, sigmoid on the i/f/o blocks and tanh on the candidate block,
// then c' = f·c + i·g and h = o·tanh(c'), everything through scalar
// math.Exp/math.Tanh in the exact order the fused kernel documents.
func RefGates(zr, bias, c, h []float64) {
	H := len(h)
	if len(zr) != 4*H || len(bias) != 4*H || len(c) != H {
		panic("difftest: RefGates length mismatch")
	}
	for j, bv := range bias {
		zr[j] += bv
	}
	for j := 0; j < 3*H; j++ {
		zr[j] = 1 / (1 + math.Exp(-zr[j]))
	}
	for j := 3 * H; j < 4*H; j++ {
		zr[j] = math.Tanh(zr[j])
	}
	gi, gf, gout, gg := zr[:H], zr[H:2*H], zr[2*H:3*H], zr[3*H:]
	for k := 0; k < H; k++ {
		c[k] = gf[k]*c[k] + gi[k]*gg[k]
	}
	for k := 0; k < H; k++ {
		h[k] = gout[k] * math.Tanh(c[k])
	}
}

// RefSoftmaxRows is the scalar reference of tensor.SoftmaxRows, the
// loop it ran before its vector glue: per row, the max by `v > m` from
// -Inf, the subtraction of it, math.Exp, one left-to-right sum, and the
// division by a positive sum.
func RefSoftmaxRows(m *tensor.Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range row {
			row[j] = math.Exp(v - maxv)
		}
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
