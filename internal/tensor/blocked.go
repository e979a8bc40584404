package tensor

// Blocked GEMM kernels. Two layers:
//
//   - Register-tiled portable Go kernels (this file) that compute 8
//     output columns per inner loop with the accumulators held in
//     registers. They accumulate each output element's k terms in
//     ascending order with one multiply and one add per term — exactly
//     the scalar order — so they are bit-identical to a naive loop.
//   - AVX2 assembly microkernels (kern_amd64.s) that do the same
//     per-lane: VMULPD + VADDPD round each 64-bit lane like scalar
//     mulsd/addsd (no FMA), so asm, tiled Go, and naive Go all agree
//     to the last bit. Selected at runtime when the CPU has AVX2.
//
// None of the blocked kernels skip zero multiplicands. For finite b
// this is bit-identical to the historical skip kernels: an accumulator
// can never hold -0 (it starts at +0 and round-to-nearest sums of
// nonzeros cancel to +0), so adding av*bv = ±0 never changes its bits.
// The differential tests (internal/tensor/difftest) pin all of this.

// useAsmKernels gates the AVX2 microkernels; initialized from the CPUID
// probe, flipped only by SetAsmKernels.
var useAsmKernels = asmSupported

// AsmKernelsSupported reports whether this binary and CPU can run the
// assembly microkernels.
func AsmKernelsSupported() bool { return asmSupported }

// SetAsmKernels enables or disables the assembly microkernels and
// returns the previous setting. Enabling is a no-op on builds or CPUs
// without them. It is a testing and diagnostics hook — not safe to call
// concurrently with running kernels.
func SetAsmKernels(enable bool) bool {
	prev := useAsmKernels
	useAsmKernels = enable && asmSupported
	return prev
}

// matMulPacked computes the m×p.N product a × p (beta = 0, no
// zero-skip) for operands embedded in wider row-major buffers: row i of
// a is a[i*as : i*as+p.K], row i of the result dst[i*ds : i*ds+p.N].
// The microkernels take row strides, so a column block of one matrix
// multiplies into a column block of another without a copy on either
// side. Callers have checked that both buffers hold m such rows.
func matMulPacked(dst []float64, ds int, a []float64, as, m int, p *Packed) {
	K, N := p.K, p.N
	if m == 0 || N == 0 {
		return
	}
	np := (N + 7) / 8
	if !useAsmKernels || K == 0 {
		matMulPackedGo(dst, ds, a, as, m, p)
		return
	}
	npFull := N / 8
	i := 0
	for ; i+4 <= m; i += 4 {
		for pi := 0; pi < npFull; pi++ {
			gemm4x8(&dst[i*ds+pi*8], ds, &a[i*as], as, &p.data[pi*K*8], K)
		}
	}
	for ; i < m; i++ {
		for pi := 0; pi < npFull; pi++ {
			gemm1x8(&dst[i*ds+pi*8], &a[i*as], &p.data[pi*K*8], K)
		}
	}
	if npFull == np {
		return
	}
	// The zero-padded last panel runs the same kernels into a 4×8 stack
	// tile, and only its N mod 8 real columns are copied out: the padded
	// lanes are computed and dropped, as the portable loop does.
	j, w := npFull*8, N-npFull*8
	panel := &p.data[npFull*K*8]
	var tile [32]float64
	i = 0
	for ; i+4 <= m; i += 4 {
		gemm4x8(&tile[0], 8, &a[i*as], as, panel, K)
		for r := 0; r < 4; r++ {
			copy(dst[(i+r)*ds+j:(i+r)*ds+j+w], tile[r*8:r*8+w])
		}
	}
	for ; i < m; i++ {
		gemm1x8(&tile[0], &a[i*as], panel, K)
		copy(dst[i*ds+j:i*ds+j+w], tile[:w])
	}
}

// matMulPackedGo is the portable form of matMulPacked, for builds and
// CPUs without the assembly: 8 accumulators per panel, partial stores
// past N.
func matMulPackedGo(dst []float64, ds int, a []float64, as, m int, p *Packed) {
	K, N := p.K, p.N
	np := (N + 7) / 8
	for i := 0; i < m; i++ {
		arow := a[i*as : i*as+K]
		orow := dst[i*ds : i*ds+N]
		for pi := 0; pi < np; pi++ {
			var c0, c1, c2, c3, c4, c5, c6, c7 float64
			panel := p.data[pi*K*8 : (pi+1)*K*8]
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
				tmp := [8]float64{c0, c1, c2, c3, c4, c5, c6, c7}
				copy(orow[j:N], tmp[:N-j])
			}
		}
	}
}

// matMulDirect computes dst = a × b reading b in place (row-major),
// register-tiled 1×8, no zero-skip.
func matMulDirect(dst, a, b *Matrix) {
	M, K, N := a.Rows, a.Cols, b.Cols
	for i := 0; i < M; i++ {
		arow := a.Data[i*K : i*K+K]
		orow := dst.Data[i*N : i*N+N]
		j := 0
		for ; j+8 <= N; j += 8 {
			var c0, c1, c2, c3, c4, c5, c6, c7 float64
			bp := j
			for k := 0; k < K; k++ {
				av := arow[k]
				br := b.Data[bp : bp+8 : bp+8]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
				c4 += av * br[4]
				c5 += av * br[5]
				c6 += av * br[6]
				c7 += av * br[7]
				bp += N
			}
			or := orow[j : j+8 : j+8]
			or[0], or[1], or[2], or[3], or[4], or[5], or[6], or[7] = c0, c1, c2, c3, c4, c5, c6, c7
		}
		for ; j < N; j++ {
			var c float64
			bp := j
			for k := 0; k < K; k++ {
				c += arow[k] * b.Data[bp]
				bp += N
			}
			orow[j] = c
		}
	}
}

// addVecMat computes dst += h × w (a 1×H row times H×N), the beta = 1
// row update of the LSTM recurrence. k ascending per element, no
// zero-skip.
func addVecMat(dst, h []float64, w *Matrix) {
	H, N := len(h), w.Cols
	if H == 0 || N == 0 {
		return
	}
	j := 0
	if useAsmKernels && N >= 8 {
		np := N / 8
		axpyN8(&dst[0], &h[0], &w.Data[0], N, H, np)
		j = np * 8
	}
	for ; j+8 <= N; j += 8 {
		zs := dst[j : j+8 : j+8]
		c0, c1, c2, c3, c4, c5, c6, c7 := zs[0], zs[1], zs[2], zs[3], zs[4], zs[5], zs[6], zs[7]
		wp := j
		for k := 0; k < H; k++ {
			hv := h[k]
			wr := w.Data[wp : wp+8 : wp+8]
			c0 += hv * wr[0]
			c1 += hv * wr[1]
			c2 += hv * wr[2]
			c3 += hv * wr[3]
			c4 += hv * wr[4]
			c5 += hv * wr[5]
			c6 += hv * wr[6]
			c7 += hv * wr[7]
			wp += N
		}
		zs[0], zs[1], zs[2], zs[3], zs[4], zs[5], zs[6], zs[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < N; j++ {
		c := dst[j]
		wp := j
		for k := 0; k < H; k++ {
			c += h[k] * w.Data[wp]
			wp += N
		}
		dst[j] = c
	}
}
