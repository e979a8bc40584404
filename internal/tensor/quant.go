package tensor

// Int8 weight quantization for the opt-in inference backend. A weight
// matrix W (K×N, float64) is stored as Q (K×N, int8) with one float32
// scale per *input row* k, chosen by absmax:
//
//	scale[k] = max_j |W[k][j]| / 127,   Q[k][j] = round(W[k][j] / scale[k])
//
// so W[k][j] ≈ scale[k] · Q[k][j]. The compute form is the dequantized
// float32 panel buffer deq — scale[k]·Q[k][j] relaid out into 8-wide
// column panels like Packed — built once at quantize time: the GEMM
// then runs float32 FMA microkernels (gemmf4x8 and friends) over the
// panels, which is numerically identical to multiplying against
// scale·Q on the fly but lets the inner loop run at full SIMD width.
// Q and Scale remain the storage/round-trip form (DequantAt, the fuzz
// oracle); rows that are all zero get scale 0 and contribute nothing.
//
// Accuracy is NOT bit-identical to the exact path — FMA is allowed
// here — and is instead gated by the committed golden-scenario
// thresholds (per-packet sojourn W1 distance and max relative delay
// error) in the quant accuracy tests.

// QuantMat is an int8-quantized weight matrix with per-input-row
// float32 scales and a packed dequantized float32 compute buffer.
type QuantMat struct {
	K, N  int
	Q     []int8    // K×N row-major
	Scale []float32 // len K
	deq   []float32 // ⌈N/8⌉ panels × K × 8, scale[k]·Q[k][j], zero-padded
}

// QuantizeMat quantizes w to int8 with per-row absmax scales.
func QuantizeMat(w *Matrix) *QuantMat {
	q := &QuantMat{
		K: w.Rows, N: w.Cols,
		Q:     make([]int8, w.Rows*w.Cols),
		Scale: make([]float32, w.Rows),
	}
	for k := 0; k < w.Rows; k++ {
		row := w.Row(k)
		absmax := 0.0
		for _, v := range row {
			av := v
			if av < 0 {
				av = -av
			}
			if av > absmax {
				absmax = av
			}
		}
		if absmax == 0 {
			continue // scale 0, Q row stays 0
		}
		s := absmax / 127
		q.Scale[k] = float32(s)
		inv := 1 / s
		qrow := q.Q[k*w.Cols : (k+1)*w.Cols]
		for j, v := range row {
			iv := int(v*inv + 0.5)
			if v < 0 {
				iv = int(v*inv - 0.5)
			}
			if iv > 127 {
				iv = 127
			}
			if iv < -127 {
				iv = -127
			}
			qrow[j] = int8(iv)
		}
	}
	K, N := q.K, q.N
	np := (N + 7) / 8
	q.deq = make([]float32, np*K*8)
	for k := 0; k < K; k++ {
		s := q.Scale[k]
		for j := 0; j < N; j++ {
			q.deq[(j/8)*K*8+k*8+j%8] = s * float32(q.Q[k*N+j])
		}
	}
	return q
}

// DequantAt returns the effective (dequantized) weight value at (k, j),
// for tests and round-trip checks.
func (q *QuantMat) DequantAt(k, j int) float64 {
	return float64(q.Scale[k]) * float64(q.Q[k*q.N+j])
}

// QMatMulInto computes dst = a ×̃ W over the dequantized float32
// panels. dst must be a.Rows×W.N and must not alias a.
func QMatMulInto(dst, a *MatrixF32, w *QuantMat) {
	if a.Cols != w.K || dst.Rows != a.Rows || dst.Cols != w.N {
		panic("tensor: QMatMulInto shape mismatch")
	}
	if len(dst.Data) > 0 && len(a.Data) > 0 && &dst.Data[0] == &a.Data[0] {
		panic("tensor: QMatMulInto destination aliases an input")
	}
	M, K, N := a.Rows, w.K, w.N
	if M == 0 || N == 0 {
		return
	}
	np := (N + 7) / 8
	npFull := N / 8
	if useAsmKernels && K > 0 && npFull > 0 {
		i := 0
		for ; i+4 <= M; i += 4 {
			for pi := 0; pi < npFull; pi++ {
				gemmf4x8(&dst.Data[i*N+pi*8], N, &a.Data[i*K], K, &w.deq[pi*K*8], K)
			}
		}
		for ; i < M; i++ {
			for pi := 0; pi < npFull; pi++ {
				gemmf1x8(&dst.Data[i*N+pi*8], &a.Data[i*K], &w.deq[pi*K*8], K)
			}
		}
		if npFull < np {
			qPackedRows(dst, a, w, 0, M, npFull, np)
		}
		return
	}
	qPackedRows(dst, a, w, 0, M, 0, np)
}

// qPackedRows is the portable quant microkernel: rows [i0, i1), panels
// [pi0, pi1), 8 accumulators per panel, partial stores for the
// zero-padded last panel.
func qPackedRows(dst, a *MatrixF32, w *QuantMat, i0, i1, pi0, pi1 int) {
	K, N := w.K, w.N
	for i := i0; i < i1; i++ {
		arow := a.Data[i*K : i*K+K]
		orow := dst.Data[i*N : i*N+N]
		for pi := pi0; pi < pi1; pi++ {
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			panel := w.deq[pi*K*8 : (pi+1)*K*8]
			for k := 0; k < K; k++ {
				av := arow[k]
				br := panel[k*8 : k*8+8 : k*8+8]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
				c4 += av * br[4]
				c5 += av * br[5]
				c6 += av * br[6]
				c7 += av * br[7]
			}
			j := pi * 8
			if j+8 <= N {
				or := orow[j : j+8 : j+8]
				or[0], or[1], or[2], or[3], or[4], or[5], or[6], or[7] = c0, c1, c2, c3, c4, c5, c6, c7
			} else {
				tmp := [8]float32{c0, c1, c2, c3, c4, c5, c6, c7}
				copy(orow[j:N], tmp[:N-j])
			}
		}
	}
}

// QMatMulBiasActInto is QMatMulInto fused with a bias add and
// activation (fast float32 transcendentals). bias may be nil.
func QMatMulBiasActInto(dst, a *MatrixF32, w *QuantMat, bias []float32, act ActKind) {
	QMatMulInto(dst, a, w)
	for i := 0; i < dst.Rows; i++ {
		orow := dst.Row(i)
		if bias != nil {
			for j, bv := range bias {
				orow[j] += bv
			}
		}
		ApplyActF32(orow, act)
	}
}

// ApplyActF32 applies the fused activation kind to a float32 row using
// the fast transcendentals.
func ApplyActF32(row []float32, act ActKind) {
	if act == ActTanh {
		FastTanhSlice(row, row)
	}
}

// QAddVecMatInto computes dst += h ×̃ W over the dequantized panels —
// the per-timestep LSTM recurrence on the quant path. len(h) must be
// W.K, len(dst) must be W.N.
func QAddVecMatInto(dst, h []float32, w *QuantMat) {
	if len(h) != w.K || len(dst) != w.N {
		panic("tensor: QAddVecMatInto length mismatch")
	}
	if len(dst) > 0 && len(h) > 0 && &dst[0] == &h[0] {
		panic("tensor: QAddVecMatInto destination aliases the input vector")
	}
	K, N := w.K, w.N
	if K == 0 || N == 0 {
		return
	}
	pi0 := 0
	if useAsmKernels && N >= 8 {
		pi0 = N / 8
		axpyf8(&dst[0], &h[0], &w.deq[0], K, pi0)
	}
	np := (N + 7) / 8
	for pi := pi0; pi < np; pi++ {
		j := pi * 8
		hi := j + 8
		if hi > N {
			hi = N
		}
		panel := w.deq[pi*K*8 : (pi+1)*K*8]
		var c [8]float32
		copy(c[:hi-j], dst[j:hi])
		for k, hv := range h {
			br := panel[k*8 : k*8+8 : k*8+8]
			for l := 0; l < 8; l++ {
				c[l] += hv * br[l]
			}
		}
		copy(dst[j:hi], c[:hi-j])
	}
}
