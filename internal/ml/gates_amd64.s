// AVX2+FMA gate kernels: sigmoidWide and tanhWide, each one loop over a
// whole slice, 4 lanes per instruction (DESIGN.md decision 35).
//
// Unlike the row kernel rowsAcc (which must avoid FMA to keep the two-
// rounding multiply-then-add chain of the scalar Dot), these kernels
// USE FMA — because the scalar code they must match does. The repo's
// Sigmoid and math.Tanh both bottom out in math.Exp, and Go's amd64
// archExp (math/exp_amd64.s) branches on useFMA = AVX && FMA: on FMA
// hardware every per-element operation is the avxfma sequence. The
// EXPCORE macro below replays that exact sequence — same SLEEF
// constants, same VFNMADD231/VFMADD213 contractions, same
// round-to-nearest int conversion — across 4 lanes at once, so each
// lane is bitwise identical to the scalar call. Dispatch only enables
// these kernels (wideGates) after verifying that parity empirically at
// init (wideGatesMatchScalar), which also guards against GODEBUG
// cpu.fma=off or a future Go release changing the algorithm.
//
// The loop stays in assembly: a Go call per 4-lane group cost about as
// much as the group's arithmetic and kept the out-of-order core from
// overlapping one group's exp chain with the next. Constants are 4-lane
// splats read as memory operands, so no instruction is spent
// broadcasting them. sigmoidWide stops at the first group with a lane
// off exp's normal-scale fast path (|x| > Overflow, denormal/underflow
// results, non-finite inputs) and returns how far it got; the caller
// computes that group in scalar and resumes. tanhWide is total: its exp
// call sits in the z >= 0.625 branch where the argument 2z is in
// [1.25, 88.06] — always on the fast path — and the other branches (±1,
// the Cephes rational polynomial, x == 0) are blended by mask.
//
// Register contract for EXPCORE: input in Y0, result exp(Y0) in Y0,
// ok mask (all-ones per good lane) in Y9; clobbers Y1-Y6. Y7, Y8,
// Y10-Y14 are preserved for the callers. Y15 is never touched. The
// loops use AX (index), CX (last group start), SI, DI and BX.

//go:build !purego

#include "textflag.h"

// SPLAT stores val in the 4 float64 lanes at sym+off.
#define SPLAT(sym, off, val) \
	DATA sym+(off)(SB)/8, val    \
	DATA sym+(off+8)(SB)/8, val  \
	DATA sym+(off+16)(SB)/8, val \
	DATA sym+(off+24)(SB)/8, val

// Constants from math/exp_amd64.s (SLEEF-derived), plus bit masks, one
// 32-byte splat each.
#define ABS expconst<>+0(SB)
#define OVERFLOW expconst<>+32(SB)
#define LOG2E expconst<>+64(SB)
#define LN2U expconst<>+96(SB)
#define LN2L expconst<>+128(SB)
#define SIXTEENTH expconst<>+160(SB)
#define T8 expconst<>+192(SB)
#define T7 expconst<>+224(SB)
#define T6 expconst<>+256(SB)
#define T5 expconst<>+288(SB)
#define T4 expconst<>+320(SB)
#define T3 expconst<>+352(SB)
#define HALF expconst<>+384(SB)
#define ONE expconst<>+416(SB)
#define TWO expconst<>+448(SB)
#define SIGN expconst<>+480(SB)
SPLAT(expconst<>, 0, $0x7FFFFFFFFFFFFFFF)
SPLAT(expconst<>, 32, $7.09782712893384e+02)
SPLAT(expconst<>, 64, $1.4426950408889634073599246810018920)
SPLAT(expconst<>, 96, $0.69314718055966295651160180568695068359375)
SPLAT(expconst<>, 128, $0.28235290563031577122588448175013436025525412068e-12)
SPLAT(expconst<>, 160, $0.0625)
SPLAT(expconst<>, 192, $2.4801587301587301587e-5)
SPLAT(expconst<>, 224, $1.9841269841269841270e-4)
SPLAT(expconst<>, 256, $1.3888888888888888889e-3)
SPLAT(expconst<>, 288, $8.3333333333333333333e-3)
SPLAT(expconst<>, 320, $4.1666666666666666667e-2)
SPLAT(expconst<>, 352, $1.6666666666666666667e-1)
SPLAT(expconst<>, 384, $0.5)
SPLAT(expconst<>, 416, $1.0)
SPLAT(expconst<>, 448, $2.0)
SPLAT(expconst<>, 480, $0x8000000000000000)
GLOBL expconst<>+0(SB), RODATA, $512

// 4×int32 exponent-bias constants for the ldexp step.
DATA expbias<>+0(SB)/4, $1023
DATA expbias<>+4(SB)/4, $1023
DATA expbias<>+8(SB)/4, $1023
DATA expbias<>+12(SB)/4, $1023
DATA expbias<>+16(SB)/4, $0x7FF
DATA expbias<>+20(SB)/4, $0x7FF
DATA expbias<>+24(SB)/4, $0x7FF
DATA expbias<>+28(SB)/4, $0x7FF
GLOBL expbias<>+0(SB), RODATA, $32

// Constants from math/tanh.go (Cephes).
#define TANH_MID tanhconst<>+0(SB)
#define TANH_BIG tanhconst<>+32(SB)
#define TANH_P0 tanhconst<>+64(SB)
#define TANH_P1 tanhconst<>+96(SB)
#define TANH_P2 tanhconst<>+128(SB)
#define TANH_Q0 tanhconst<>+160(SB)
#define TANH_Q1 tanhconst<>+192(SB)
#define TANH_Q2 tanhconst<>+224(SB)
SPLAT(tanhconst<>, 0, $0.625)
SPLAT(tanhconst<>, 32, $4.4014845965556527147994e+01) // 0.5*MAXLOG
SPLAT(tanhconst<>, 64, $-9.64399179425052238628e-1)
SPLAT(tanhconst<>, 96, $-9.92877231001918586564e1)
SPLAT(tanhconst<>, 128, $-1.61468768441708447952e3)
SPLAT(tanhconst<>, 160, $1.12811678491632931402e2)
SPLAT(tanhconst<>, 192, $2.23548839060100448583e3)
SPLAT(tanhconst<>, 224, $4.84406305325125486048e3)
GLOBL tanhconst<>+0(SB), RODATA, $256

// EXPCORE: Y0 = exp(Y0) lane-wise, Y9 = fast-path mask. The avxfma
// block of archExp, widened: n = rint(x*LOG2E); x -= n*LN2U (fused);
// x -= n*LN2L (fused); x *= 0.0625; 7-term fused Taylor; four add/mul
// squaring steps with the last mul fused into +1; scale by 2^n via
// exponent-field bit assembly. Lanes whose biased exponent leaves
// (0, 0x7FF), or with |x| > Overflow (covers ±Inf/NaN), are cleared
// from Y9 — their computed value is garbage and must not be used.
#define EXPCORE \
	VANDPD	ABS, Y0, Y1                \ // |x|
	VCMPPD	$0x12, OVERFLOW, Y1, Y9    \ // ok = |x| <= Overflow (LE_OQ)
	VMULPD	LOG2E, Y0, Y2              \ // LOG2E * x
	VCVTPD2DQY	Y2, X4                 \ // n (round to nearest, per MXCSR)
	VCVTDQ2PD	X4, Y3                 \ // float64(n)
	VFNMADD231PD	LN2U, Y3, Y0       \ // x -= n*LN2U (single rounding)
	VFNMADD231PD	LN2L, Y3, Y0       \ // x -= n*LN2L
	VMULPD	SIXTEENTH, Y0, Y0          \ // x *= 0.0625
	VMOVUPD	T8, Y1                     \ // Taylor: p = c8
	VFMADD213PD	T7, Y0, Y1             \ // p = p*x + c7
	VFMADD213PD	T6, Y0, Y1             \
	VFMADD213PD	T5, Y0, Y1             \
	VFMADD213PD	T4, Y0, Y1             \
	VFMADD213PD	T3, Y0, Y1             \
	VFMADD213PD	HALF, Y0, Y1           \ // p = p*x + 0.5
	VFMADD213PD	ONE, Y0, Y1            \ // p = p*x + 1.0
	VMULPD	Y1, Y0, Y0                 \ // x *= p
	VADDPD	TWO, Y0, Y1                \ // t = x + 2
	VMULPD	Y1, Y0, Y0                 \ // x *= t
	VADDPD	TWO, Y0, Y1                \
	VMULPD	Y1, Y0, Y0                 \
	VADDPD	TWO, Y0, Y1                \
	VMULPD	Y1, Y0, Y0                 \
	VADDPD	TWO, Y0, Y1                \
	VFMADD213PD	ONE, Y1, Y0            \ // x = x*t + 1
	VMOVDQU	expbias<>+0(SB), X5        \
	VPADDD	X5, X4, X4                 \ // biased = n + 1023
	VPXOR	X5, X5, X5                 \
	VPCMPGTD	X5, X4, X5             \ // biased > 0
	VMOVDQU	expbias<>+16(SB), X6       \
	VPCMPGTD	X4, X6, X6             \ // biased < 0x7FF
	VPAND	X6, X5, X5                 \
	VPMOVSXDQ	X5, Y5                 \
	VANDPD	Y5, Y9, Y9                 \ // fold into ok mask
	VPMOVSXDQ	X4, Y3                 \
	VPSLLQ	$52, Y3, Y3                \ // 2^n as float64 bits
	VMULPD	Y3, Y0, Y0                 // result = fr * 2^n

// func sigmoidWide(dst, src *float64, n int) (done int)
//
// Loops over src in 4-lane groups while a whole group fits in n. The
// scalar Sigmoid branches on x >= 0 to keep exp's argument negative;
// both branches are e = Exp(-|x|) with numerator 1 (x >= 0) or e
// (x < 0) over denominator 1+e, which is how each group is computed
// here (branch by blend). -0 and NaN take the same path as scalar: -0
// >= 0 is true in both, and a NaN lane is off the fast path. The first
// group with a lane off exp's fast path ends the loop before its store,
// so dst still holds what it held there (the original input when dst
// aliases src); done is the number of lanes written, a multiple of 4.
TEXT ·sigmoidWide(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	SUBQ	$4, CX // the last index a group may start at
	XORQ	AX, AX

sigloop:
	CMPQ	AX, CX
	JGT	sigdone
	VMOVUPD	(SI)(AX*8), Y8
	VANDPD	ABS, Y8, Y0  // |x|
	VORPD	SIGN, Y0, Y0 // -|x|
	EXPCORE
	VMOVMSKPD	Y9, BX
	CMPQ	BX, $0x0F
	JNE	sigdone
	VXORPD	Y2, Y2, Y2
	VCMPPD	$0x1D, Y2, Y8, Y3      // x >= 0 (GE_OQ)
	VBLENDVPD	Y3, ONE, Y0, Y4    // num = x >= 0 ? 1 : e
	VADDPD	ONE, Y0, Y5            // 1 + e
	VDIVPD	Y5, Y4, Y0             // num / (1 + e)
	VMOVUPD	Y0, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	sigloop

sigdone:
	VZEROUPPER
	MOVQ	AX, done+24(FP)
	RET

// TANHPOLY: Y12 = the Cephes branch of tanh(Y8), s2 = x², x + x·s2·P/Q,
// with x == 0 returning x (preserving -0). Clobbers Y0-Y3 and Y14.
#define TANHPOLY \
	VMULPD	Y8, Y8, Y0         \ // s2 = x*x
	VMULPD	TANH_P0, Y0, Y1    \ // P0*s2
	VADDPD	TANH_P1, Y1, Y1    \ // + P1
	VMULPD	Y0, Y1, Y1         \ // * s2
	VADDPD	TANH_P2, Y1, Y1    \ // num
	VADDPD	TANH_Q0, Y0, Y3    \ // s2 + Q0
	VMULPD	Y0, Y3, Y3         \ // * s2
	VADDPD	TANH_Q1, Y3, Y3    \ // + Q1
	VMULPD	Y0, Y3, Y3         \ // * s2
	VADDPD	TANH_Q2, Y3, Y3    \ // den
	VMULPD	Y0, Y8, Y2         \ // x*s2
	VMULPD	Y1, Y2, Y2         \ // (x*s2)*num
	VDIVPD	Y3, Y2, Y2         \ // /den
	VADDPD	Y2, Y8, Y12        \ // x + x*s2*num/den
	VXORPD	Y3, Y3, Y3         \
	VCMPPD	$0x00, Y3, Y8, Y14 \ // x == 0 (EQ_OQ)
	VBLENDVPD	Y14, Y8, Y12, Y12

// func tanhWide(dst, src *float64, n int)
//
// Loops over src in 4-lane groups while a whole group fits in n, each
// group math.Tanh's three branches (math/tanh.go), blended by mask with
// the scalar switch's precedence (big beats mid beats poly):
//
//	z > 0.5*MAXLOG: ±1
//	z >= 0.625:     s = Exp(2z); 1 - 2/(s+1), negated for x < 0
//	default:        x == 0 ? x : Cephes x + x·s·P(s)/Q(s), s = x²
//
// A group evaluates only the branches its lanes take: no exp when every
// lane is below 0.625 (or NaN), no polynomial when none is. A lane's
// value is the same whichever branches its neighbours needed.
TEXT ·tanhWide(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	SUBQ	$4, CX // the last index a group may start at
	XORQ	AX, AX

tanhloop:
	CMPQ	AX, CX
	JGT	tanhdone
	VMOVUPD	(SI)(AX*8), Y8
	VANDPD	ABS, Y8, Y10               // z = |x|
	VCMPPD	$0x1D, TANH_MID, Y10, Y13  // z >= 0.625 (GE_OQ)
	VMOVMSKPD	Y13, BX
	TESTQ	BX, BX
	JZ	tanhpoly

	VADDPD	Y10, Y10, Y0  // 2z (doubling is exact; == 2*z bitwise)
	EXPCORE               // Y0 = s = Exp(2z); Y9 ignored (mid lanes
	                      // always hit the fast path: 2z in [1.25, 88.06])
	VADDPD	ONE, Y0, Y2   // s + 1
	VMOVUPD	TWO, Y3
	VDIVPD	Y2, Y3, Y2    // 2 / (s+1)
	VMOVUPD	ONE, Y1
	VSUBPD	Y2, Y1, Y12   // 1 - 2/(s+1)
	VANDPD	SIGN, Y8, Y11 // sign(x)
	VXORPD	Y11, Y12, Y12 // negate mid result for x < 0
	CMPQ	BX, $0x0F
	JEQ	tanhbig
	VMOVAPD	Y12, Y7
	TANHPOLY
	VBLENDVPD	Y13, Y7, Y12, Y12

tanhbig:
	VCMPPD	$0x1E, TANH_BIG, Y10, Y13 // z > 0.5*MAXLOG (GT_OQ)
	VORPD	ONE, Y11, Y3               // ±1 with x's sign
	VBLENDVPD	Y13, Y3, Y12, Y12
	JMP	tanhstore

tanhpoly:
	TANHPOLY

tanhstore:
	VMOVUPD	Y12, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	tanhloop

tanhdone:
	VZEROUPPER
	RET
