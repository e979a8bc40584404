//go:build amd64 && !purego

#include "textflag.h"

// AVX2 GEMM microkernels. Bit-identity contract: every output element
// accumulates its k terms in ascending order with one VMULPD + VADDPD
// per term — each 64-bit lane rounds exactly like scalar mulsd/addsd.
// FMA is deliberately not used: vfmadd skips the intermediate rounding
// of the product and would change low-order bits.

// func gemm4x8(dst *float64, dstStride int, a *float64, aStride int, panel *float64, k int)
// Computes dst[r][0:8] = sum_k a[r][k]*panel[k][0:8] for r = 0..3
// (beta = 0). panel is one 8-wide packed panel (k-major, 8 lanes per
// row); dst rows are dstStride apart.
TEXT ·gemm4x8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aStride+24(FP), R9
	MOVQ panel+32(FP), DX
	MOVQ k+40(FP), CX

	LEAQ (SI)(R9*8), R10
	LEAQ (R10)(R9*8), R11
	LEAQ (R11)(R9*8), R12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	XORQ BX, BX
	CMPQ CX, $0
	JLE  done

loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9

	VBROADCASTSD (SI)(BX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1

	VBROADCASTSD (R10)(BX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3

	VBROADCASTSD (R11)(BX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5

	VBROADCASTSD (R12)(BX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7

	ADDQ $64, DX
	INCQ BX
	CMPQ BX, CX
	JLT  loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	LEAQ (DI)(R8*8), DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	LEAQ (DI)(R8*8), DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	LEAQ (DI)(R8*8), DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm1x8(dst *float64, a *float64, panel *float64, k int)
// Computes dst[0:8] = sum_k a[k]*panel[k][0:8] (beta = 0) — the
// row-tail variant of gemm4x8 for M % 4 leftovers.
TEXT ·gemm1x8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ k+24(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

	XORQ BX, BX
	CMPQ CX, $0
	JLE  done1

loop1:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI)(BX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1
	ADDQ $64, DX
	INCQ BX
	CMPQ BX, CX
	JLT  loop1

done1:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func axpyN8(dst *float64, h *float64, w *float64, wStride int, hn int, npanels int)
// dst[0:npanels*8] += sum_k h[k]*w[k][0:npanels*8] — the beta = 1 row
// update of the LSTM recurrence, reading w (row-major, stride wStride)
// directly without packing. k ascending per element.
//
// Each k pass feeds four 8-wide panels at once: eight independent
// accumulator chains, so the loop is bound by load and multiply
// throughput instead of one panel's VADDPD latency. The one-panel loop
// finishes the npanels % 4 rest. Every element still sees VMULPD then
// VADDPD per term in ascending k, so the blocking changes no bit.
TEXT ·axpyN8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ wStride+24(FP), R8
	MOVQ hn+32(FP), CX
	MOVQ npanels+40(FP), R9

	SHLQ $3, R8 // stride in bytes

quadloop:
	CMPQ R9, $4
	JLT  panelloop

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

	MOVQ DX, R10 // w column base for these four panels
	XORQ BX, BX

qkloop:
	CMPQ BX, CX
	JGE  qkdone
	VBROADCASTSD (SI)(BX*8), Y10
	VMULPD (R10), Y10, Y8
	VADDPD Y8, Y0, Y0
	VMULPD 32(R10), Y10, Y9
	VADDPD Y9, Y1, Y1
	VMULPD 64(R10), Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R10), Y10, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R10), Y10, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(R10), Y10, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(R10), Y10, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(R10), Y10, Y8
	VADDPD Y8, Y7, Y7
	ADDQ R8, R10
	INCQ BX
	JMP  qkloop

qkdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $4, R9
	JMP  quadloop

panelloop:
	CMPQ R9, $0
	JLE  alldone

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

	MOVQ DX, R10 // w column base for this panel
	XORQ BX, BX

kloop:
	CMPQ BX, CX
	JGE  kdone
	VBROADCASTSD (SI)(BX*8), Y10
	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1
	ADDQ R8, R10
	INCQ BX
	JMP  kloop

kdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ R9
	JMP  panelloop

alldone:
	VZEROUPPER
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// --- float32 quant-path microkernels ---
//
// These serve the int8-quantized backend, which carries no bit-identity
// contract (accuracy is gated by golden-scenario thresholds instead),
// so FMA is allowed and used.

// func gemmf4x8(dst *float32, dstStride int, a *float32, aStride int, panel *float32, k int)
// dst[r][0:8] = sum_k a[r][k]*panel[k][0:8] for r = 0..3 (beta = 0)
// over the dequantized float32 panels of a QuantMat.
TEXT ·gemmf4x8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aStride+24(FP), R9
	MOVQ panel+32(FP), DX
	MOVQ k+40(FP), CX

	LEAQ (SI)(R9*4), R10
	LEAQ (R10)(R9*4), R11
	LEAQ (R11)(R9*4), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	XORQ BX, BX
	CMPQ CX, $0
	JLE  fdone

floop:
	VMOVUPS (DX), Y8
	VBROADCASTSS (SI)(BX*4), Y10
	VFMADD231PS Y8, Y10, Y0
	VBROADCASTSS (R10)(BX*4), Y10
	VFMADD231PS Y8, Y10, Y1
	VBROADCASTSS (R11)(BX*4), Y10
	VFMADD231PS Y8, Y10, Y2
	VBROADCASTSS (R12)(BX*4), Y10
	VFMADD231PS Y8, Y10, Y3
	ADDQ $32, DX
	INCQ BX
	CMPQ BX, CX
	JLT  floop

fdone:
	VMOVUPS Y0, (DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Y1, (DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Y2, (DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func gemmf1x8(dst *float32, a *float32, panel *float32, k int)
// Row-tail variant of gemmf4x8.
TEXT ·gemmf1x8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ k+24(FP), CX

	VXORPS Y0, Y0, Y0

	XORQ BX, BX
	CMPQ CX, $0
	JLE  fdone1

floop1:
	VMOVUPS (DX), Y8
	VBROADCASTSS (SI)(BX*4), Y10
	VFMADD231PS Y8, Y10, Y0
	ADDQ $32, DX
	INCQ BX
	CMPQ BX, CX
	JLT  floop1

fdone1:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func axpyf8(dst *float32, h *float32, panels *float32, hn int, npanels int)
// dst[0:npanels*8] += sum_k h[k]*panels[k][0:8] over consecutive packed
// panels — the quant-path LSTM recurrence update.
TEXT ·axpyf8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ panels+16(FP), DX
	MOVQ hn+24(FP), CX
	MOVQ npanels+32(FP), R9

fpanel:
	CMPQ R9, $0
	JLE  faxdone
	VMOVUPS (DI), Y0
	XORQ BX, BX

fk:
	CMPQ BX, CX
	JGE  fkdone
	VBROADCASTSS (SI)(BX*4), Y10
	VMOVUPS (DX), Y8
	VFMADD231PS Y8, Y10, Y0
	ADDQ $32, DX
	INCQ BX
	JMP  fk

fkdone:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ R9
	JMP  fpanel

faxdone:
	VZEROUPPER
	RET
