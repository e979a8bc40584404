//go:build amd64 && !purego

#include "textflag.h"

// 4-lane AVX2+FMA transcendental kernels, bit-identical to the scalar
// math package on this hardware class.
//
// Go's math.Exp on amd64 (archExp, exp_amd64.s) takes its FMA path
// whenever the CPU has AVX and FMA (math's private useFMA). That path
// is straight-line SLEEF code: round x/ln2 to an int32 n with the
// current rounding mode, subtract n·ln2 in two FMA steps (hi/lo split),
// scale by 1/16, evaluate a degree-8 Taylor polynomial with FMA, square
// back up four times, and multiply by 2^n built in the exponent field.
// Every step maps 1:1 onto a packed instruction (VFNMADD231SD →
// VFNMADD231PD, CVTSD2SL → VCVTPD2DQ, ...), and each packed lane rounds
// exactly like its scalar twin, so EXPCORE below reproduces archExp
// bit-for-bit on every lane whose input stays clear of the entry
// special cases (non-finite, overflow) and of the ldexp denormal/
// overflow branches. The Go wrappers only feed lanes with |x| ≤ 704
// (biased exponent then stays inside [7, 2040]) and fall back to
// math.Exp for the rest, so the special branches never need vector
// code. The rodata constants are copied verbatim from exp_amd64.s.
//
// math.Tanh on amd64 is the portable Cephes code (tanh.go): a rational
// polynomial below |x| = 0.625, 1 - 2/(e^{2|x|}+1) up to 0.5·MAXLOG,
// ±1 beyond. The Go compiler never fuses mul+add on amd64, so the
// polynomial's float expression tree maps onto discrete VMULPD/VADDPD/
// VDIVPD with identical per-op rounding, and the branches become lane
// blends: both sides are computed for every lane of a group and
// VBLENDVPD picks the one the scalar code would have taken (garbage in
// a lane that is blended away is harmless — SIMD FP faults are masked),
// except that a group with no lane at or above 0.625 skips the exp side
// it would blend away in full. tanh is total, so vtanhblk handles every
// input.
//
// The differential suite (internal/tensor/difftest) pins all of this
// against math.Exp/math.Tanh exhaustively and on adversarial inputs.

// Constants of archExp (exp_amd64.s), replicated across 4 lanes.
DATA expc05<>+0(SB)/8, $0.5
DATA expc05<>+8(SB)/8, $0.5
DATA expc05<>+16(SB)/8, $0.5
DATA expc05<>+24(SB)/8, $0.5
GLOBL expc05<>(SB), RODATA|NOPTR, $32

DATA expone<>+0(SB)/8, $1.0
DATA expone<>+8(SB)/8, $1.0
DATA expone<>+16(SB)/8, $1.0
DATA expone<>+24(SB)/8, $1.0
GLOBL expone<>(SB), RODATA|NOPTR, $32

DATA exptwo<>+0(SB)/8, $2.0
DATA exptwo<>+8(SB)/8, $2.0
DATA exptwo<>+16(SB)/8, $2.0
DATA exptwo<>+24(SB)/8, $2.0
GLOBL exptwo<>(SB), RODATA|NOPTR, $32

DATA expc24<>+0(SB)/8, $1.6666666666666666667e-1
DATA expc24<>+8(SB)/8, $1.6666666666666666667e-1
DATA expc24<>+16(SB)/8, $1.6666666666666666667e-1
DATA expc24<>+24(SB)/8, $1.6666666666666666667e-1
GLOBL expc24<>(SB), RODATA|NOPTR, $32

DATA expc32<>+0(SB)/8, $4.1666666666666666667e-2
DATA expc32<>+8(SB)/8, $4.1666666666666666667e-2
DATA expc32<>+16(SB)/8, $4.1666666666666666667e-2
DATA expc32<>+24(SB)/8, $4.1666666666666666667e-2
GLOBL expc32<>(SB), RODATA|NOPTR, $32

DATA expc40<>+0(SB)/8, $8.3333333333333333333e-3
DATA expc40<>+8(SB)/8, $8.3333333333333333333e-3
DATA expc40<>+16(SB)/8, $8.3333333333333333333e-3
DATA expc40<>+24(SB)/8, $8.3333333333333333333e-3
GLOBL expc40<>(SB), RODATA|NOPTR, $32

DATA expc48<>+0(SB)/8, $1.3888888888888888889e-3
DATA expc48<>+8(SB)/8, $1.3888888888888888889e-3
DATA expc48<>+16(SB)/8, $1.3888888888888888889e-3
DATA expc48<>+24(SB)/8, $1.3888888888888888889e-3
GLOBL expc48<>(SB), RODATA|NOPTR, $32

DATA expc56<>+0(SB)/8, $1.9841269841269841270e-4
DATA expc56<>+8(SB)/8, $1.9841269841269841270e-4
DATA expc56<>+16(SB)/8, $1.9841269841269841270e-4
DATA expc56<>+24(SB)/8, $1.9841269841269841270e-4
GLOBL expc56<>(SB), RODATA|NOPTR, $32

DATA expc64<>+0(SB)/8, $2.4801587301587301587e-5
DATA expc64<>+8(SB)/8, $2.4801587301587301587e-5
DATA expc64<>+16(SB)/8, $2.4801587301587301587e-5
DATA expc64<>+24(SB)/8, $2.4801587301587301587e-5
GLOBL expc64<>(SB), RODATA|NOPTR, $32

DATA explog2e<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA explog2e<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA explog2e<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA explog2e<>+24(SB)/8, $1.4426950408889634073599246810018920
GLOBL explog2e<>(SB), RODATA|NOPTR, $32

DATA expln2u<>+0(SB)/8, $0.69314718055966295651160180568695068359375
DATA expln2u<>+8(SB)/8, $0.69314718055966295651160180568695068359375
DATA expln2u<>+16(SB)/8, $0.69314718055966295651160180568695068359375
DATA expln2u<>+24(SB)/8, $0.69314718055966295651160180568695068359375
GLOBL expln2u<>(SB), RODATA|NOPTR, $32

DATA expln2l<>+0(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expln2l<>+8(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expln2l<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expln2l<>+24(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
GLOBL expln2l<>(SB), RODATA|NOPTR, $32

DATA expc0625<>+0(SB)/8, $0.0625
DATA expc0625<>+8(SB)/8, $0.0625
DATA expc0625<>+16(SB)/8, $0.0625
DATA expc0625<>+24(SB)/8, $0.0625
GLOBL expc0625<>(SB), RODATA|NOPTR, $32

// |x| ≤ 704 keeps archExp's ldexp exponent in [7, 2040]: no denormal,
// no overflow, no entry special case — the vector path is exact there.
DATA expsafe<>+0(SB)/8, $704.0
DATA expsafe<>+8(SB)/8, $704.0
DATA expsafe<>+16(SB)/8, $704.0
DATA expsafe<>+24(SB)/8, $704.0
GLOBL expsafe<>(SB), RODATA|NOPTR, $32

// Exponent bias 1023 as 4 × int32 for the ldexp step.
DATA expbias<>+0(SB)/4, $1023
DATA expbias<>+4(SB)/4, $1023
DATA expbias<>+8(SB)/4, $1023
DATA expbias<>+12(SB)/4, $1023
GLOBL expbias<>(SB), RODATA|NOPTR, $16

DATA absmask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absmask<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absmask<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absmask<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absmask<>(SB), RODATA|NOPTR, $32

DATA signmask<>+0(SB)/8, $0x8000000000000000
DATA signmask<>+8(SB)/8, $0x8000000000000000
DATA signmask<>+16(SB)/8, $0x8000000000000000
DATA signmask<>+24(SB)/8, $0x8000000000000000
GLOBL signmask<>(SB), RODATA|NOPTR, $32

// Cephes tanh constants (math/tanh.go). tanhbig is 0.5*MAXLOG with the
// exact bits the Go compiler produces for that constant expression.
DATA tanhp0<>+0(SB)/8, $-9.64399179425052238628e-1
DATA tanhp0<>+8(SB)/8, $-9.64399179425052238628e-1
DATA tanhp0<>+16(SB)/8, $-9.64399179425052238628e-1
DATA tanhp0<>+24(SB)/8, $-9.64399179425052238628e-1
GLOBL tanhp0<>(SB), RODATA|NOPTR, $32

DATA tanhp1<>+0(SB)/8, $-9.92877231001918586564e1
DATA tanhp1<>+8(SB)/8, $-9.92877231001918586564e1
DATA tanhp1<>+16(SB)/8, $-9.92877231001918586564e1
DATA tanhp1<>+24(SB)/8, $-9.92877231001918586564e1
GLOBL tanhp1<>(SB), RODATA|NOPTR, $32

DATA tanhp2<>+0(SB)/8, $-1.61468768441708447952e3
DATA tanhp2<>+8(SB)/8, $-1.61468768441708447952e3
DATA tanhp2<>+16(SB)/8, $-1.61468768441708447952e3
DATA tanhp2<>+24(SB)/8, $-1.61468768441708447952e3
GLOBL tanhp2<>(SB), RODATA|NOPTR, $32

DATA tanhq0<>+0(SB)/8, $1.12811678491632931402e2
DATA tanhq0<>+8(SB)/8, $1.12811678491632931402e2
DATA tanhq0<>+16(SB)/8, $1.12811678491632931402e2
DATA tanhq0<>+24(SB)/8, $1.12811678491632931402e2
GLOBL tanhq0<>(SB), RODATA|NOPTR, $32

DATA tanhq1<>+0(SB)/8, $2.23548839060100448583e3
DATA tanhq1<>+8(SB)/8, $2.23548839060100448583e3
DATA tanhq1<>+16(SB)/8, $2.23548839060100448583e3
DATA tanhq1<>+24(SB)/8, $2.23548839060100448583e3
GLOBL tanhq1<>(SB), RODATA|NOPTR, $32

DATA tanhq2<>+0(SB)/8, $4.84406305325125486048e3
DATA tanhq2<>+8(SB)/8, $4.84406305325125486048e3
DATA tanhq2<>+16(SB)/8, $4.84406305325125486048e3
DATA tanhq2<>+24(SB)/8, $4.84406305325125486048e3
GLOBL tanhq2<>(SB), RODATA|NOPTR, $32

DATA tanh625<>+0(SB)/8, $0.625
DATA tanh625<>+8(SB)/8, $0.625
DATA tanh625<>+16(SB)/8, $0.625
DATA tanh625<>+24(SB)/8, $0.625
GLOBL tanh625<>(SB), RODATA|NOPTR, $32

DATA tanhbig<>+0(SB)/8, $0x404601E678FC457B
DATA tanhbig<>+8(SB)/8, $0x404601E678FC457B
DATA tanhbig<>+16(SB)/8, $0x404601E678FC457B
DATA tanhbig<>+24(SB)/8, $0x404601E678FC457B
GLOBL tanhbig<>(SB), RODATA|NOPTR, $32

// EXPCORE: Y0 = exp(Y0) per lane, archExp's FMA path packed 4-wide.
// Requires Y12=LOG2E, Y11=LN2U, Y10=LN2L, Y9=0.0625 preloaded; clobbers
// Y1, Y2, Y4, X4. Lanes must satisfy |x| ≤ 704 for exactness.
#define EXPCORE \
	VMULPD Y12, Y0, Y1        \ // t = x·log2(e)
	VCVTPD2DQY Y1, X4         \ // n = rint(t), 4 × int32
	VCVTDQ2PD X4, Y1          \
	VFNMADD231PD Y11, Y1, Y0  \ // x -= n·LN2U
	VFNMADD231PD Y10, Y1, Y0  \ // x -= n·LN2L
	VMULPD Y9, Y0, Y0         \ // x /= 16
	VMOVUPD expc64<>(SB), Y2  \
	VFMADD213PD expc56<>(SB), Y0, Y2 \
	VFMADD213PD expc48<>(SB), Y0, Y2 \
	VFMADD213PD expc40<>(SB), Y0, Y2 \
	VFMADD213PD expc32<>(SB), Y0, Y2 \
	VFMADD213PD expc24<>(SB), Y0, Y2 \
	VFMADD213PD expc05<>(SB), Y0, Y2 \
	VFMADD213PD expone<>(SB), Y0, Y2 \
	VMULPD Y2, Y0, Y0         \ // u = x·p
	VADDPD exptwo<>(SB), Y0, Y2 \
	VMULPD Y2, Y0, Y0         \ // u = u·(u+2), 1st squaring
	VADDPD exptwo<>(SB), Y0, Y2 \
	VMULPD Y2, Y0, Y0         \
	VADDPD exptwo<>(SB), Y0, Y2 \
	VMULPD Y2, Y0, Y0         \
	VADDPD exptwo<>(SB), Y0, Y2 \
	VFMADD213PD expone<>(SB), Y2, Y0 \ // u = u·(u+2) + 1
	VPADDD expbias<>(SB), X4, X4 \ // biased exponent
	VPMOVSXDQ X4, Y4          \
	VPSLLQ $52, Y4, Y4        \
	VMULPD Y4, Y0, Y0         // · 2^n

// TAILLOADAT gathers the R10 ∈ {1, 2, 3} elements at (base)(AX*8)
// into the low lanes of y (x is its low half) and zeroes the lanes
// above; clobbers X1. See vexpblk for why the loads are scalar.
#define TAILLOADAT(base, x, y) \
	VMOVSD (base)(AX*8), x      \ // lane 0; lanes 1–3 zeroed
	CMPQ R10, $2                \
	JLT  6(PC)                  \
	VMOVHPD 8(base)(AX*8), x, x \ // lane 1
	CMPQ R10, $3                \
	JLT  3(PC)                  \
	VMOVSD 16(base)(AX*8), X1   \ // lane 2
	VINSERTF128 $1, X1, y, y

// TAILSTOREAT scatters the low R10 ∈ {1, 2, 3} lanes of y (x is its
// low half) to (base)(AX*8); clobbers X1.
#define TAILSTOREAT(base, x, y) \
	VMOVSD x, (base)(AX*8)      \
	CMPQ R10, $2                \
	JLT  6(PC)                  \
	VMOVHPD x, 8(base)(AX*8)    \
	CMPQ R10, $3                \
	JLT  3(PC)                  \
	VEXTRACTF128 $1, y, X1      \
	VMOVSD X1, 16(base)(AX*8)

#define TAILLOAD(x, y) TAILLOADAT(SI, x, y)
#define TAILSTORE(x, y) TAILSTOREAT(DI, x, y)

// func vexpblk(dst, x []float64) int
// Writes dst[i] = exp(x[i]) group by group while every lane in the
// group has |x| ≤ 704; returns the number of elements processed. Stops
// early at the first group with an out-of-range (or NaN) lane — the Go
// wrapper finishes it with math.Exp. dst may alias x exactly.
//
// A 1–3 element tail is one more group: its lanes are gathered with
// scalar loads into a zeroed register (zero is a safe lane of every
// kernel here) and scattered back with scalar stores, so no lane past
// len(x) is read or written. Scalar loads also forward from the scalar
// stores that usually just wrote those elements (the gate kernel's
// bias add), where one 32-byte load of them would wait for the stores
// to drain.
TEXT ·vexpblk(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX

	VMOVUPD absmask<>(SB), Y15
	VMOVUPD expsafe<>(SB), Y14
	VMOVUPD explog2e<>(SB), Y12
	VMOVUPD expln2u<>(SB), Y11
	VMOVUPD expln2l<>(SB), Y10
	VMOVUPD expc0625<>(SB), Y9

	XORQ AX, AX
exploop:
	LEAQ 4(AX), R9
	CMPQ R9, CX
	JGT  exptail
	VMOVUPD (SI)(AX*8), Y0
expgroup:
	VANDPD Y15, Y0, Y1
	VCMPPD $0x12, Y14, Y1, Y2 // |x| ≤ 704, LE_OQ (false for NaN)
	VMOVMSKPD Y2, DX
	CMPL DX, $0xF
	JNE  expdone
	EXPCORE
	CMPQ R9, CX
	JGT  expstoretail
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ R9, AX
	JMP  exploop
exptail:
	MOVQ CX, R10
	SUBQ AX, R10 // 0–3 lanes left
	JZ   expdone
	TAILLOAD(X0, Y0)
	JMP  expgroup
expstoretail:
	TAILSTORE(X0, Y0)
	MOVQ CX, AX
expdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func vsigmoidblk(dst, x []float64) int
// dst[i] = 1/(1+exp(-x[i])), same group and tail contract as vexpblk.
// The negation, the add and the divide are all exact or correctly
// rounded single ops, matching scalar Sigmoid.
TEXT ·vsigmoidblk(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX

	VMOVUPD absmask<>(SB), Y15
	VMOVUPD expsafe<>(SB), Y14
	VMOVUPD explog2e<>(SB), Y12
	VMOVUPD expln2u<>(SB), Y11
	VMOVUPD expln2l<>(SB), Y10
	VMOVUPD expc0625<>(SB), Y9

	XORQ AX, AX
sigloop:
	LEAQ 4(AX), R9
	CMPQ R9, CX
	JGT  sigtail
	VMOVUPD (SI)(AX*8), Y0
siggroup:
	VANDPD Y15, Y0, Y1
	VCMPPD $0x12, Y14, Y1, Y2
	VMOVMSKPD Y2, DX
	CMPL DX, $0xF
	JNE  sigdone
	VXORPD signmask<>(SB), Y0, Y0 // -x
	EXPCORE
	VADDPD expone<>(SB), Y0, Y1   // 1 + e
	VMOVUPD expone<>(SB), Y2
	VDIVPD Y1, Y2, Y0             // 1 / (1 + e)
	CMPQ R9, CX
	JGT  sigstoretail
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ R9, AX
	JMP  sigloop
sigtail:
	MOVQ CX, R10
	SUBQ AX, R10 // 0–3 lanes left
	JZ   sigdone
	TAILLOAD(X0, Y0)
	JMP  siggroup
sigstoretail:
	TAILSTORE(X0, Y0)
	MOVQ CX, AX
sigdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func vtanhblk(dst, x []float64) int
// dst[i] = tanh(x[i]) for every element, the tail as in vexpblk;
// returns len(x). Handles every input: the rational-polynomial branch
// is computed for all lanes and VBLENDVPD picks per lane what the
// scalar branch ladder would have returned (the exp branch for
// z ≥ 0.625, ±1 beyond 0.5·MAXLOG, x for ±0, NaN for NaN). The exp branch runs only for a group in which some lane
// has z ≥ 0.625: when none does, both of its blends would keep the
// polynomial in every lane (the 0.5·MAXLOG mask implies the 0.625 one,
// and a NaN lane compares false in both), so skipping it is exact.
TEXT ·vtanhblk(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX

	VMOVUPD absmask<>(SB), Y15
	VMOVUPD tanh625<>(SB), Y14
	VMOVUPD explog2e<>(SB), Y12
	VMOVUPD expln2u<>(SB), Y11
	VMOVUPD expln2l<>(SB), Y10
	VMOVUPD expc0625<>(SB), Y9

	XORQ AX, AX
tanhloop:
	LEAQ 4(AX), R9
	CMPQ R9, CX
	JGT  tanhtail
	VMOVUPD (SI)(AX*8), Y8  // x
tanhgroup:
	VANDPD Y15, Y8, Y7      // z = |x|
	VANDNPD Y8, Y15, Y5     // sign bit of x
	VCMPPD $0x1D, Y14, Y7, Y13 // z ≥ 0.625, GE_OQ (false for NaN)
	VMOVMSKPD Y13, DX
	TESTL DX, DX
	JZ   tanhpoly

	// exp branch: 1 - 2/(e^{2z}+1), sign restored from x.
	VMULPD exptwo<>(SB), Y7, Y0
	EXPCORE
	VADDPD expone<>(SB), Y0, Y1
	VMOVUPD exptwo<>(SB), Y2
	VDIVPD Y1, Y2, Y2       // 2/(s+1)
	VMOVUPD expone<>(SB), Y1
	VSUBPD Y2, Y1, Y6       // 1 - 2/(s+1)
	VXORPD Y5, Y6, Y6

tanhpoly:
	// polynomial branch, ops in the scalar evaluation order:
	// x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2)
	VMULPD Y8, Y8, Y1       // s = x²
	VMOVUPD tanhp0<>(SB), Y2
	VMULPD Y1, Y2, Y2
	VADDPD tanhp1<>(SB), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD tanhp2<>(SB), Y2, Y2 // numerator
	VADDPD tanhq0<>(SB), Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD tanhq1<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD tanhq2<>(SB), Y3, Y3 // denominator
	VMULPD Y1, Y8, Y4       // x·s
	VMULPD Y2, Y4, Y4       // (x·s)·num
	VDIVPD Y3, Y4, Y4       // /den
	VADDPD Y8, Y4, Y4       // + x

	// Blend ladder, least to most specific; the first two only when
	// the exp branch ran.
	TESTL DX, DX
	JZ   tanhzero
	VBLENDVPD Y13, Y6, Y4, Y4
	VCMPPD $0x1E, tanhbig<>(SB), Y7, Y1 // z > 0.5·MAXLOG, GT_OQ
	VMOVUPD expone<>(SB), Y2
	VXORPD Y5, Y2, Y2                   // ±1
	VBLENDVPD Y1, Y2, Y4, Y4
tanhzero:
	VXORPD Y1, Y1, Y1
	VCMPPD $0x00, Y1, Y8, Y1            // x == ±0, EQ_OQ
	VBLENDVPD Y1, Y8, Y4, Y4

	CMPQ R9, CX
	JGT  tanhstoretail
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ R9, AX
	JMP  tanhloop
tanhtail:
	MOVQ CX, R10
	SUBQ AX, R10 // 0–3 lanes left
	JZ   tanhdone
	TAILLOAD(X8, Y8)
	JMP  tanhgroup
tanhstoretail:
	TAILSTORE(X4, Y4)
	MOVQ CX, AX
tanhdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func vgates(zr, bias, c, h []float64) int
// One LSTM timestep's gate math for H = len(h): zr = zr + bias, the
// sigmoid of the i|f|o blocks and the tanh of the g block in place,
// c = f·c + i·g, h = tanh(c)·o — nn.GatesInto's passes in one call,
// each op rounding like its Go expression (no FMA outside EXPCORE and
// tanh's exp branch, which replicate archExp). Every pass runs whole
// 4-lane groups plus one gathered tail group, and reads a group at the
// offset some earlier pass of this call stored it at, so the loads
// forward from those stores. Returns -1.
//
// The sigmoid is exact only for |z + b| ≤ 704 (see vexpblk). At the
// first sigmoid group with a lane outside that range (or NaN) the
// kernel stops: it adds the bias to zr from that group to the end and
// returns the group's index j, leaving zr[:j] as sigmoids, zr[j:] as
// pre-activations, and c and h untouched, for the caller to finish.
TEXT ·vgates(SB), NOSPLIT, $0-104
	MOVQ zr_base+0(FP), R14
	MOVQ bias_base+24(FP), SI
	MOVQ c_base+48(FP), R11
	MOVQ h_base+72(FP), R12
	MOVQ h_len+80(FP), CX     // H
	LEAQ (CX)(CX*2), R13      // 3H: the sigmoid span
	LEAQ (R13)(CX*1), R8      // 4H
	MOVQ $-1, R9              // the group the sigmoid pass stopped at

	VMOVUPD absmask<>(SB), Y15
	VMOVUPD expsafe<>(SB), Y14
	VMOVUPD explog2e<>(SB), Y12
	VMOVUPD expln2u<>(SB), Y11
	VMOVUPD expln2l<>(SB), Y10
	VMOVUPD expc0625<>(SB), Y9

	// Sigmoid pass over [0, 3H): zr = 1/(1+exp(-(z + b))).
	XORQ AX, AX
gsloop:
	LEAQ 4(AX), BX
	CMPQ BX, R13
	JGT  gstail
	VMOVUPD (R14)(AX*8), Y0
	VADDPD (SI)(AX*8), Y0, Y0
gsgroup:
	VANDPD Y15, Y0, Y1
	VCMPPD $0x12, Y14, Y1, Y2 // |x| ≤ 704, LE_OQ (false for NaN)
	VMOVMSKPD Y2, DX
	CMPL DX, $0xF
	JNE  gsstop
	VXORPD signmask<>(SB), Y0, Y0
	EXPCORE
	VADDPD expone<>(SB), Y0, Y1
	VMOVUPD expone<>(SB), Y2
	VDIVPD Y1, Y2, Y0
	CMPQ BX, R13
	JGT  gsstoretail
	VMOVUPD Y0, (R14)(AX*8)
	MOVQ BX, AX
	JMP  gsloop
gstail:
	MOVQ R13, R10
	SUBQ AX, R10
	JZ   gbloop // AX = 3H: on to the g block
	TAILLOADAT(R14, X0, Y0)
	TAILLOADAT(SI, X3, Y3)
	VADDPD Y3, Y0, Y0
	JMP  gsgroup
gsstoretail:
	TAILSTOREAT(R14, X0, Y0)
	MOVQ R13, AX
	JMP  gbloop
gsstop:
	MOVQ AX, R9

	// Bias pass over [AX, 4H): zr = z + b. AX is 3H (the g block) or
	// the group the sigmoid pass stopped at.
gbloop:
	LEAQ 4(AX), BX
	CMPQ BX, R8
	JGT  gbtail
	VMOVUPD (R14)(AX*8), Y0
	VADDPD (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (R14)(AX*8)
	MOVQ BX, AX
	JMP  gbloop
gbtail:
	MOVQ R8, R10
	SUBQ AX, R10
	JZ   gbdone
	TAILLOADAT(R14, X0, Y0)
	TAILLOADAT(SI, X3, Y3)
	VADDPD Y3, Y0, Y0
	TAILSTOREAT(R14, X0, Y0)
gbdone:
	CMPQ R9, $0
	JLT  gblocks
	MOVQ R9, ret+96(FP)
	VZEROUPPER
	RET

gblocks:
	// Block bases: i at R14, f at R8, o at R9, g at R13. The first tanh
	// pass runs on g in place, then the cell pass, then the second tanh
	// pass from c into h; the tanh pass tells them apart by DI.
	LEAQ (R14)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R13
	MOVQ R13, SI
	MOVQ R13, DI
	VMOVUPD tanh625<>(SB), Y14

gtanh:
	// Tanh pass over [0, H): (DI) = tanh((SI)), vtanhblk's group body.
	XORQ AX, AX
gtloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  gttail
	VMOVUPD (SI)(AX*8), Y8
gtgroup:
	VANDPD Y15, Y8, Y7
	VANDNPD Y8, Y15, Y5
	VCMPPD $0x1D, Y14, Y7, Y13
	VMOVMSKPD Y13, DX
	TESTL DX, DX
	JZ   gtpoly
	VMULPD exptwo<>(SB), Y7, Y0
	EXPCORE
	VADDPD expone<>(SB), Y0, Y1
	VMOVUPD exptwo<>(SB), Y2
	VDIVPD Y1, Y2, Y2
	VMOVUPD expone<>(SB), Y1
	VSUBPD Y2, Y1, Y6
	VXORPD Y5, Y6, Y6
gtpoly:
	VMULPD Y8, Y8, Y1
	VMOVUPD tanhp0<>(SB), Y2
	VMULPD Y1, Y2, Y2
	VADDPD tanhp1<>(SB), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD tanhp2<>(SB), Y2, Y2
	VADDPD tanhq0<>(SB), Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD tanhq1<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD tanhq2<>(SB), Y3, Y3
	VMULPD Y1, Y8, Y4
	VMULPD Y2, Y4, Y4
	VDIVPD Y3, Y4, Y4
	VADDPD Y8, Y4, Y4
	TESTL DX, DX
	JZ   gtzero
	VBLENDVPD Y13, Y6, Y4, Y4
	VCMPPD $0x1E, tanhbig<>(SB), Y7, Y1
	VMOVUPD expone<>(SB), Y2
	VXORPD Y5, Y2, Y2
	VBLENDVPD Y1, Y2, Y4, Y4
gtzero:
	VXORPD Y1, Y1, Y1
	VCMPPD $0x00, Y1, Y8, Y1
	VBLENDVPD Y1, Y8, Y4, Y4
	CMPQ BX, CX
	JGT  gtstoretail
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ BX, AX
	JMP  gtloop
gttail:
	MOVQ CX, R10
	SUBQ AX, R10
	JZ   gtdone
	TAILLOADAT(SI, X8, Y8)
	JMP  gtgroup
gtstoretail:
	TAILSTOREAT(DI, X4, Y4)
gtdone:
	CMPQ DI, R12
	JEQ  gmul

	// Cell pass over [0, H): c = f·c + i·g.
	XORQ AX, AX
gcloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  gctail
	VMOVUPD (R8)(AX*8), Y0
	VMULPD (R11)(AX*8), Y0, Y0
	VMOVUPD (R14)(AX*8), Y2
	VMULPD (R13)(AX*8), Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (R11)(AX*8)
	MOVQ BX, AX
	JMP  gcloop
gctail:
	MOVQ CX, R10
	SUBQ AX, R10
	JZ   gcdone
	TAILLOADAT(R8, X0, Y0)
	TAILLOADAT(R11, X2, Y2)
	VMULPD Y2, Y0, Y0
	TAILLOADAT(R14, X3, Y3)
	TAILLOADAT(R13, X2, Y2)
	VMULPD Y2, Y3, Y3
	VADDPD Y3, Y0, Y0
	TAILSTOREAT(R11, X0, Y0)
gcdone:
	MOVQ R11, SI
	MOVQ R12, DI
	JMP  gtanh

gmul:
	// Output pass over [0, H): h = tanh(c)·o.
	XORQ AX, AX
gmloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  gmtail
	VMOVUPD (R12)(AX*8), Y0
	VMULPD (R9)(AX*8), Y0, Y0
	VMOVUPD Y0, (R12)(AX*8)
	MOVQ BX, AX
	JMP  gmloop
gmtail:
	MOVQ CX, R10
	SUBQ AX, R10
	JZ   gmdone
	TAILLOADAT(R12, X0, Y0)
	TAILLOADAT(R9, X2, Y2)
	VMULPD Y2, Y0, Y0
	TAILSTOREAT(R12, X0, Y0)
gmdone:
	MOVQ $-1, ret+96(FP)
	VZEROUPPER
	RET

// --- softmax and scale glue (AVX, no FMA) ---
//
// Each lane rounds exactly like the scalar Go expression it replaces;
// the 1–3 element tails run as scalar VEX ops of the same kind.

DATA neginf<>+0(SB)/8, $0xFFF0000000000000
DATA neginf<>+8(SB)/8, $0xFFF0000000000000
DATA neginf<>+16(SB)/8, $0xFFF0000000000000
DATA neginf<>+24(SB)/8, $0xFFF0000000000000
GLOBL neginf<>(SB), RODATA|NOPTR, $32

// func vscale(x []float64, s float64)
// x[i] = x[i]·s.
TEXT ·vscale(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y1
	XORQ AX, AX
scloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  sctail
	VMOVUPD (DI)(AX*8), Y0
	VMULPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ BX, AX
	JMP  scloop
sctail:
	CMPQ AX, CX
	JGE  scdone
	VMOVSD (DI)(AX*8), X0
	VMULSD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  sctail
scdone:
	VZEROUPPER
	RET

// func vmaxsub(x []float64)
// x[i] = x[i] - max(x), the max as the scalar loop `if v > m { m = v }`
// from m = -Inf finds it. VMAXPD v, m returns v exactly when v > m and
// m otherwise (a NaN v included), so each lane keeps that loop's
// running max of its own elements, and the lanes reduce to the same
// value — up to the sign of a zero maximum, which no x[i] - max can
// show: ±0 - ±0 rounds to +0 or -0 and either is exp'd to 1, and a
// nonzero v minus a zero is v.
TEXT ·vmaxsub(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VMOVUPD neginf<>(SB), Y0
	XORQ AX, AX
mxloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  mxreduce
	VMOVUPD (DI)(AX*8), Y1
	VMAXPD Y0, Y1, Y0
	MOVQ BX, AX
	JMP  mxloop
mxreduce:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD X0, X1, X0
	VUNPCKHPD X0, X0, X1
	VMAXSD X0, X1, X0
mxtail:
	CMPQ AX, CX
	JGE  mxsub
	VMOVSD (DI)(AX*8), X1
	VMAXSD X0, X1, X0
	INCQ AX
	JMP  mxtail
mxsub:
	VBROADCASTSD X0, Y2
	XORQ AX, AX
sbloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  sbtail
	VMOVUPD (DI)(AX*8), Y1
	VSUBPD Y2, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ BX, AX
	JMP  sbloop
sbtail:
	CMPQ AX, CX
	JGE  sbdone
	VMOVSD (DI)(AX*8), X1
	VSUBSD X2, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  sbtail
sbdone:
	VZEROUPPER
	RET

// func vsumdiv(x []float64)
// sum = x[0] + x[1] + … as one left-to-right scalar chain from +0 (its
// order sets the bits); then, if sum > 0, x[i] = x[i]/sum.
TEXT ·vsumdiv(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VXORPD X0, X0, X0
	XORQ AX, AX
suloop:
	CMPQ AX, CX
	JGE  sucheck
	VADDSD (DI)(AX*8), X0, X0
	INCQ AX
	JMP  suloop
sucheck:
	VXORPD X1, X1, X1
	VCMPSD $0x1E, X1, X0, X2 // sum > 0, GT_OQ (false for NaN)
	VMOVMSKPD X2, DX
	TESTL $1, DX
	JZ   dvdone
	VBROADCASTSD X0, Y1
	XORQ AX, AX
dvloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  dvtail
	VMOVUPD (DI)(AX*8), Y2
	VDIVPD Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	MOVQ BX, AX
	JMP  dvloop
dvtail:
	CMPQ AX, CX
	JGE  dvdone
	VMOVSD (DI)(AX*8), X2
	VDIVSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  dvtail
dvdone:
	VZEROUPPER
	RET

// --- float32 fast transcendentals (quant path) ---
//
// 8-lane versions of FastExp32/FastSigmoid32/FastTanh32. These carry no
// bit-identity contract — the quant path is accuracy-gated — so FMA and
// round-to-nearest-even integer conversion are used freely; the scalar
// Go fallbacks differ in a couple of low-order ULPs. Algorithm is
// FastExp32's: n = rint(x/ln2), z = (x/ln2 - n)·ln2, degree-6 Taylor in
// z by Horner, scale by 2^n via an integer add to the exponent field.
// Out-of-range and NaN lanes are fixed up with compare/blend.

DATA f32log2e<>+0(SB)/4, $1.4426950408889634
DATA f32log2e<>+4(SB)/4, $1.4426950408889634
DATA f32log2e<>+8(SB)/4, $1.4426950408889634
DATA f32log2e<>+12(SB)/4, $1.4426950408889634
DATA f32log2e<>+16(SB)/4, $1.4426950408889634
DATA f32log2e<>+20(SB)/4, $1.4426950408889634
DATA f32log2e<>+24(SB)/4, $1.4426950408889634
DATA f32log2e<>+28(SB)/4, $1.4426950408889634
GLOBL f32log2e<>(SB), RODATA|NOPTR, $32

DATA f32ln2<>+0(SB)/4, $0.6931471805599453
DATA f32ln2<>+4(SB)/4, $0.6931471805599453
DATA f32ln2<>+8(SB)/4, $0.6931471805599453
DATA f32ln2<>+12(SB)/4, $0.6931471805599453
DATA f32ln2<>+16(SB)/4, $0.6931471805599453
DATA f32ln2<>+20(SB)/4, $0.6931471805599453
DATA f32ln2<>+24(SB)/4, $0.6931471805599453
DATA f32ln2<>+28(SB)/4, $0.6931471805599453
GLOBL f32ln2<>(SB), RODATA|NOPTR, $32

DATA f32c6<>+0(SB)/4, $0.001388888888888889
DATA f32c6<>+4(SB)/4, $0.001388888888888889
DATA f32c6<>+8(SB)/4, $0.001388888888888889
DATA f32c6<>+12(SB)/4, $0.001388888888888889
DATA f32c6<>+16(SB)/4, $0.001388888888888889
DATA f32c6<>+20(SB)/4, $0.001388888888888889
DATA f32c6<>+24(SB)/4, $0.001388888888888889
DATA f32c6<>+28(SB)/4, $0.001388888888888889
GLOBL f32c6<>(SB), RODATA|NOPTR, $32

DATA f32c5<>+0(SB)/4, $0.008333333333333333
DATA f32c5<>+4(SB)/4, $0.008333333333333333
DATA f32c5<>+8(SB)/4, $0.008333333333333333
DATA f32c5<>+12(SB)/4, $0.008333333333333333
DATA f32c5<>+16(SB)/4, $0.008333333333333333
DATA f32c5<>+20(SB)/4, $0.008333333333333333
DATA f32c5<>+24(SB)/4, $0.008333333333333333
DATA f32c5<>+28(SB)/4, $0.008333333333333333
GLOBL f32c5<>(SB), RODATA|NOPTR, $32

DATA f32c4<>+0(SB)/4, $0.041666666666666664
DATA f32c4<>+4(SB)/4, $0.041666666666666664
DATA f32c4<>+8(SB)/4, $0.041666666666666664
DATA f32c4<>+12(SB)/4, $0.041666666666666664
DATA f32c4<>+16(SB)/4, $0.041666666666666664
DATA f32c4<>+20(SB)/4, $0.041666666666666664
DATA f32c4<>+24(SB)/4, $0.041666666666666664
DATA f32c4<>+28(SB)/4, $0.041666666666666664
GLOBL f32c4<>(SB), RODATA|NOPTR, $32

DATA f32c3<>+0(SB)/4, $0.16666666666666666
DATA f32c3<>+4(SB)/4, $0.16666666666666666
DATA f32c3<>+8(SB)/4, $0.16666666666666666
DATA f32c3<>+12(SB)/4, $0.16666666666666666
DATA f32c3<>+16(SB)/4, $0.16666666666666666
DATA f32c3<>+20(SB)/4, $0.16666666666666666
DATA f32c3<>+24(SB)/4, $0.16666666666666666
DATA f32c3<>+28(SB)/4, $0.16666666666666666
GLOBL f32c3<>(SB), RODATA|NOPTR, $32

DATA f32half<>+0(SB)/4, $0.5
DATA f32half<>+4(SB)/4, $0.5
DATA f32half<>+8(SB)/4, $0.5
DATA f32half<>+12(SB)/4, $0.5
DATA f32half<>+16(SB)/4, $0.5
DATA f32half<>+20(SB)/4, $0.5
DATA f32half<>+24(SB)/4, $0.5
DATA f32half<>+28(SB)/4, $0.5
GLOBL f32half<>(SB), RODATA|NOPTR, $32

DATA f32one<>+0(SB)/4, $1.0
DATA f32one<>+4(SB)/4, $1.0
DATA f32one<>+8(SB)/4, $1.0
DATA f32one<>+12(SB)/4, $1.0
DATA f32one<>+16(SB)/4, $1.0
DATA f32one<>+20(SB)/4, $1.0
DATA f32one<>+24(SB)/4, $1.0
DATA f32one<>+28(SB)/4, $1.0
GLOBL f32one<>(SB), RODATA|NOPTR, $32

DATA f32hi<>+0(SB)/4, $88.5
DATA f32hi<>+4(SB)/4, $88.5
DATA f32hi<>+8(SB)/4, $88.5
DATA f32hi<>+12(SB)/4, $88.5
DATA f32hi<>+16(SB)/4, $88.5
DATA f32hi<>+20(SB)/4, $88.5
DATA f32hi<>+24(SB)/4, $88.5
DATA f32hi<>+28(SB)/4, $88.5
GLOBL f32hi<>(SB), RODATA|NOPTR, $32

DATA f32lo<>+0(SB)/4, $-87.0
DATA f32lo<>+4(SB)/4, $-87.0
DATA f32lo<>+8(SB)/4, $-87.0
DATA f32lo<>+12(SB)/4, $-87.0
DATA f32lo<>+16(SB)/4, $-87.0
DATA f32lo<>+20(SB)/4, $-87.0
DATA f32lo<>+24(SB)/4, $-87.0
DATA f32lo<>+28(SB)/4, $-87.0
GLOBL f32lo<>(SB), RODATA|NOPTR, $32

DATA f32inf<>+0(SB)/4, $0x7F800000
DATA f32inf<>+4(SB)/4, $0x7F800000
DATA f32inf<>+8(SB)/4, $0x7F800000
DATA f32inf<>+12(SB)/4, $0x7F800000
DATA f32inf<>+16(SB)/4, $0x7F800000
DATA f32inf<>+20(SB)/4, $0x7F800000
DATA f32inf<>+24(SB)/4, $0x7F800000
DATA f32inf<>+28(SB)/4, $0x7F800000
GLOBL f32inf<>(SB), RODATA|NOPTR, $32

DATA f32nine<>+0(SB)/4, $9.0
DATA f32nine<>+4(SB)/4, $9.0
DATA f32nine<>+8(SB)/4, $9.0
DATA f32nine<>+12(SB)/4, $9.0
DATA f32nine<>+16(SB)/4, $9.0
DATA f32nine<>+20(SB)/4, $9.0
DATA f32nine<>+24(SB)/4, $9.0
DATA f32nine<>+28(SB)/4, $9.0
GLOBL f32nine<>(SB), RODATA|NOPTR, $32

DATA f32sign<>+0(SB)/4, $0x80000000
DATA f32sign<>+4(SB)/4, $0x80000000
DATA f32sign<>+8(SB)/4, $0x80000000
DATA f32sign<>+12(SB)/4, $0x80000000
DATA f32sign<>+16(SB)/4, $0x80000000
DATA f32sign<>+20(SB)/4, $0x80000000
DATA f32sign<>+24(SB)/4, $0x80000000
DATA f32sign<>+28(SB)/4, $0x80000000
GLOBL f32sign<>(SB), RODATA|NOPTR, $32

// EXPF32CORE: Y1 = fastexp(Y0) per lane with range clamps; preserves
// Y0; clobbers Y2, Y3. Y0 must be the (possibly negated) exp argument.
#define EXPF32CORE \
	VMULPS f32log2e<>(SB), Y0, Y1 \
	VCVTPS2DQ Y1, Y2              \ // n
	VCVTDQ2PS Y2, Y3              \
	VSUBPS Y3, Y1, Y1             \ // t - n
	VMULPS f32ln2<>(SB), Y1, Y1   \ // z
	VMOVUPS f32c6<>(SB), Y3       \
	VFMADD213PS f32c5<>(SB), Y1, Y3 \
	VFMADD213PS f32c4<>(SB), Y1, Y3 \
	VFMADD213PS f32c3<>(SB), Y1, Y3 \
	VFMADD213PS f32half<>(SB), Y1, Y3 \
	VFMADD213PS f32one<>(SB), Y1, Y3 \
	VFMADD213PS f32one<>(SB), Y1, Y3 \ // p ≈ e^z
	VPSLLD $23, Y2, Y2            \
	VPADDD Y2, Y3, Y3             \ // p · 2^n via exponent-field add
	VCMPPS $0x1E, f32hi<>(SB), Y0, Y1 \ // x > 88.5 → +Inf
	VBLENDVPS Y1, f32inf<>(SB), Y3, Y3 \
	VCMPPS $0x11, f32lo<>(SB), Y0, Y1 \ // x < -87 → 0
	VXORPS Y2, Y2, Y2             \
	VBLENDVPS Y1, Y2, Y3, Y3      \
	VCMPPS $0x03, Y0, Y0, Y1      \ // NaN → x
	VBLENDVPS Y1, Y0, Y3, Y1      // result in Y1

// func vexpf8(dst, x []float32) int
// dst[i] = FastExp32-style e^x for the leading 8·⌊n/8⌋ elements;
// returns that count. Total (all inputs handled).
TEXT ·vexpf8(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX

	XORQ AX, AX
fexploop:
	LEAQ 8(AX), R9
	CMPQ R9, CX
	JGT  fexpdone
	VMOVUPS (SI)(AX*4), Y0
	EXPF32CORE
	VMOVUPS Y1, (DI)(AX*4)
	MOVQ R9, AX
	JMP  fexploop
fexpdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func vsigmoidf8(dst, x []float32) int
// dst[i] = 1/(1+e^-x), fast-f32 flavor, leading 8·⌊n/8⌋ elements.
TEXT ·vsigmoidf8(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX

	XORQ AX, AX
fsigloop:
	LEAQ 8(AX), R9
	CMPQ R9, CX
	JGT  fsigdone
	VMOVUPS (SI)(AX*4), Y0
	VXORPS f32sign<>(SB), Y0, Y0 // -x
	EXPF32CORE
	VADDPS f32one<>(SB), Y1, Y2  // 1 + e
	VMOVUPS f32one<>(SB), Y3
	VDIVPS Y2, Y3, Y1            // 1/(1+e)
	VMOVUPS Y1, (DI)(AX*4)
	MOVQ R9, AX
	JMP  fsigloop
fsigdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func vtanhf8(dst, x []float32) int
// dst[i] = (e^{2x}-1)/(e^{2x}+1) with ±1 saturation beyond |x| = 9,
// leading 8·⌊n/8⌋ elements.
TEXT ·vtanhf8(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX

	XORQ AX, AX
ftanhloop:
	LEAQ 8(AX), R9
	CMPQ R9, CX
	JGT  ftanhdone
	VMOVUPS (SI)(AX*4), Y8       // x
	VADDPS Y8, Y8, Y0            // 2x
	EXPF32CORE
	VSUBPS f32one<>(SB), Y1, Y2  // e - 1
	VADDPS f32one<>(SB), Y1, Y3  // e + 1
	VDIVPS Y3, Y2, Y4
	VCMPPS $0x1E, f32nine<>(SB), Y8, Y1 // x > 9 → 1
	VBLENDVPS Y1, f32one<>(SB), Y4, Y4
	VMOVUPS f32nine<>(SB), Y2
	VXORPS f32sign<>(SB), Y2, Y2        // -9
	VCMPPS $0x11, Y2, Y8, Y1            // x < -9 → -1
	VMOVUPS f32one<>(SB), Y3
	VXORPS f32sign<>(SB), Y3, Y3        // -1
	VBLENDVPS Y1, Y3, Y4, Y4
	VCMPPS $0x03, Y8, Y8, Y1            // NaN → x
	VBLENDVPS Y1, Y8, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	MOVQ R9, AX
	JMP  ftanhloop
ftanhdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
