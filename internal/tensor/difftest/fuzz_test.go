package difftest

import (
	"encoding/binary"
	"math"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// FuzzMatMulKernels fuzzes shapes and value mixes through the blocked
// kernels with the naive references as the oracle, under both asm
// settings. The spice byte gates special values (NaN/±Inf/denormals)
// into the operands; every kernel must stay bit-identical to the
// reference regardless. Seed corpus in testdata/fuzz/FuzzMatMulKernels;
// nightly.yml runs an extended campaign.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(byte(1), byte(1), byte(1), uint64(1), byte(0))
	f.Add(byte(4), byte(3), byte(9), uint64(7), byte(0))
	f.Add(byte(5), byte(8), byte(16), uint64(11), byte(1))
	f.Add(byte(32), byte(20), byte(48), uint64(3), byte(0))
	f.Add(byte(7), byte(2), byte(17), uint64(99), byte(3))
	f.Add(byte(32), byte(15), byte(12), uint64(5), byte(0)) // the embedding: a 4-column edge panel
	f.Add(byte(16), byte(16), byte(1), uint64(6), byte(3))  // the head: one column
	f.Add(byte(13), byte(15), byte(12), uint64(8), byte(1)) // 4-row blocks plus a 1-row tail on the edge panel
	f.Fuzz(func(t *testing.T, mb, kb, nb byte, seed uint64, spice byte) {
		m := int(mb % 33)
		k := int(kb % 33)
		n := int(nb % 65)
		r := rng.New(seed)

		a := tensor.New(m, k)
		b := tensor.New(k, n)
		fillRand(r, a, spice&1 != 0)
		fillRand(r, b, spice&2 != 0)

		want := tensor.New(m, n)
		RefMatMul(want, a, b)
		wantT := tensor.New(m, m)
		RefMatMulT(wantT, a, a)

		for _, asm := range []bool{false, true} {
			prev := tensor.SetAsmKernels(asm)
			got := tensor.New(m, n)
			tensor.MatMulInto(got, a, b)
			p := tensor.Pack(b)
			gotP := tensor.New(m, n)
			tensor.MatMulPackedInto(gotP, a, p)
			gotT := tensor.New(m, m)
			tensor.MatMulTInto(gotT, a, a)
			tensor.SetAsmKernels(prev)

			for i := range want.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("asm=%v MatMulInto elem %d: got %v want %v (shape %dx%dx%d)", asm, i, got.Data[i], want.Data[i], m, k, n)
				}
				if !sameBits(gotP.Data[i], want.Data[i]) {
					t.Fatalf("asm=%v MatMulPackedInto elem %d: got %v want %v (shape %dx%dx%d)", asm, i, gotP.Data[i], want.Data[i], m, k, n)
				}
			}
			for i := range wantT.Data {
				if !sameBits(gotT.Data[i], wantT.Data[i]) {
					t.Fatalf("asm=%v MatMulTInto elem %d: got %v want %v", asm, i, gotT.Data[i], wantT.Data[i])
				}
			}
		}
	})
}

// FuzzSliceTranscendentals feeds raw float64 bit patterns — 1 to 11 of
// them, eight little-endian bytes each, so every NaN payload, subnormal
// and boundary neighbour is reachable — through ExpSlice, SigmoidSlice
// and TanhSlice with the vector kernels on and off. Every lane must
// carry exactly the bits of math.Exp, Sigmoid and math.Tanh: whole
// 4-lane groups, the gathered tail group, tanh groups that skip the
// exp branch and the scalar fallback behind an unsafe exp lane alike.
func FuzzSliceTranscendentals(f *testing.F) {
	raw := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(raw(0.5))
	f.Add(raw(0.1, -0.2, 0.3, 0.7, 750))
	f.Add(raw(0, math.Copysign(0, -1), math.NaN(), 5e-324, math.Nextafter(0.625, 0), -0.625))
	f.Add(raw(1, -1, 0.25, 705, -0.5, 44.02, math.Inf(-1)))
	f.Add(raw(0.2, 0.2, 0.2, 0.2, -3, 0.2, 0.2, 0.2, -709.78, 0.625, 1e-310))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 11)
		if n == 0 {
			return
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, vec := range []bool{false, true} {
			func() {
				defer tensor.SetVecKernels(tensor.SetVecKernels(vec))
				for _, op := range transcendOps {
					checkScalarBits(t, op.name, op.slice, op.scalar, xs)
				}
			}()
		}
	})
}

// FuzzSoftmaxRows feeds raw float64 bit patterns through Matrix.Scale
// and SoftmaxRows — attention's score glue — with the assembly and
// vector kernels on and off, against a scalar multiply and
// RefSoftmaxRows. data[0] picks the row length (1–33), the next eight
// bytes the scale, and every further eight bytes one element; a partial
// last row is dropped. Every element must carry the reference's bits
// (any NaN matches any NaN): the vector max, subtraction and division,
// their scalar tails, and the one scalar chain of the sum.
func FuzzSoftmaxRows(f *testing.F) {
	raw := func(cols byte, scale float64, xs ...float64) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{cols - 1}, math.Float64bits(scale))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(raw(4, 0.35, 0.1, -0.2, 0.3, 0.7, 2, 2, 2, 2))                       // an all-equal row
	f.Add(raw(5, 1, negZero, -1, 0, -3, negZero))                              // a ±0 maximum
	f.Add(raw(3, 1, math.Inf(-1), math.Inf(-1), math.Inf(-1)))                 // nothing above -Inf
	f.Add(raw(6, 2, math.NaN(), 1, math.Inf(1), 5e-324, -800, 3))              // NaN, +Inf, a subnormal, an exp underflow
	f.Add(raw(1, -0.5, 7, negZero, math.NaN()))                                // one-element rows
	f.Add(raw(9, 0.125, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1)) // a 1-element tail per row
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		cols := 1 + int(data[0]%33)
		scale := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
		rows := min((len(data)-9)/8/cols, 8)
		if rows == 0 {
			return
		}
		in := tensor.New(rows, cols)
		for i := range in.Data {
			in.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[9+8*i:]))
		}
		want := in.Clone()
		for i := range want.Data {
			want.Data[i] *= scale
		}
		RefSoftmaxRows(want)
		for _, asm := range []bool{false, true} {
			for _, vec := range []bool{false, true} {
				prevAsm, prevVec := tensor.SetAsmKernels(asm), tensor.SetVecKernels(vec)
				got := in.Clone()
				got.Scale(scale)
				tensor.SoftmaxRows(got)
				tensor.SetAsmKernels(prevAsm)
				tensor.SetVecKernels(prevVec)
				for i := range want.Data {
					if !sameBits(got.Data[i], want.Data[i]) {
						t.Fatalf("asm=%v vec=%v %dx%d scale %v: element %d (input %v) got %v want %v", asm, vec, rows, cols, scale, i, in.Data[i], got.Data[i], want.Data[i])
					}
				}
			}
		}
	})
}

// FuzzQuantRoundTrip fuzzes weight matrices through QuantizeMat and
// checks the int8 round-trip invariants: codes stay in [-127, 127], the
// per-row absmax scale reconstructs every weight within half a
// quantization step (plus float32 scale rounding), and the packed-panel
// GEMM agrees with a float64 matmul over the dequantized weights within
// float32 accumulation error. Seed corpus in
// testdata/fuzz/FuzzQuantRoundTrip.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(byte(1), byte(1), uint64(1), 1.0)
	f.Add(byte(8), byte(12), uint64(5), 0.01)
	f.Add(byte(20), byte(48), uint64(9), 100.0)
	f.Add(byte(3), byte(17), uint64(42), 1e-6)
	f.Fuzz(func(t *testing.T, kb, nb byte, seed uint64, mag float64) {
		k := 1 + int(kb%48)
		n := 1 + int(nb%64)
		if !(mag > 1e-30 && mag < 1e30) { // keep weights finite and sane
			mag = 1
		}
		r := rng.New(seed)
		w := tensor.New(k, n)
		for i := range w.Data {
			w.Data[i] = r.Uniform(-mag, mag)
			if r.Intn(9) == 0 {
				w.Data[i] = 0
			}
		}

		q := tensor.QuantizeMat(w)
		for kk := 0; kk < k; kk++ {
			row := w.Row(kk)
			absmax := 0.0
			for _, v := range row {
				if av := math.Abs(v); av > absmax {
					absmax = av
				}
			}
			step := absmax / 127
			for j, v := range row {
				deq := q.DequantAt(kk, j)
				// Half a step from round-to-nearest, plus the float32
				// rounding of the stored scale amplified by |Q| ≤ 127.
				tol := 0.5*step + 127*step*1.2e-7 + 1e-300
				if math.Abs(v-deq) > tol {
					t.Fatalf("row %d col %d: |%v - %v| > %v (absmax %v)", kk, j, v, deq, tol, absmax)
				}
			}
		}

		// GEMM over the packed dequantized panels vs a float64 reference
		// over DequantAt values: bounded by float32 accumulation error.
		m := 1 + int(seed%5)
		a := tensor.NewF32(m, k)
		for i := range a.Data {
			a.Data[i] = float32(r.Uniform(-2, 2))
		}
		dst := tensor.NewF32(m, n)
		for _, asm := range []bool{false, true} {
			prev := tensor.SetAsmKernels(asm)
			tensor.QMatMulInto(dst, a, q)
			tensor.SetAsmKernels(prev)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					var ref, magSum float64
					for kk := 0; kk < k; kk++ {
						term := float64(a.At(i, kk)) * q.DequantAt(kk, j)
						ref += term
						magSum += math.Abs(term)
					}
					tol := 2 * float64(k+2) * 1.2e-7 * magSum
					if d := math.Abs(float64(dst.At(i, j)) - ref); d > tol+1e-30 {
						t.Fatalf("asm=%v QMatMulInto (%d,%d): |%v - %v| = %v > %v", asm, i, j, dst.At(i, j), ref, d, tol)
					}
				}
			}
		}
	})
}
