// 4-wide AVX2+FMA gate kernels: sigmoid4 and tanh4.
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
// sigmoid4 returns an ok-lane mask: lanes whose exponent leaves exp's
// normal-scale fast path (|x| > Overflow, denormal/underflow results,
// non-finite inputs) must be recomputed by the scalar fallback. tanh4
// is total: its exp call sits in the z >= 0.625 branch where the
// argument 2z is in [1.25, 88.06] — always on the fast path — and the
// other branches (±1, the Cephes rational polynomial, x == 0) are
// evaluated unconditionally and blended by mask.
//
// Register contract for EXPCORE: input in Y0, result exp(Y0) in Y0,
// ok mask (all-ones per good lane) in Y9; clobbers Y1-Y6. Y7, Y8,
// Y10-Y14 are preserved for the callers. Y15 is never touched.

//go:build !purego

#include "textflag.h"

// Constants from math/exp_amd64.s (SLEEF-derived), plus bit masks.
DATA expconst<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF  // abs mask
DATA expconst<>+8(SB)/8, $7.09782712893384e+02 // Overflow
DATA expconst<>+16(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA expconst<>+24(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expconst<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expconst<>+40(SB)/8, $0.0625
DATA expconst<>+48(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+56(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+64(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+72(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+80(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+88(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+96(SB)/8, $0.5
DATA expconst<>+104(SB)/8, $1.0
DATA expconst<>+112(SB)/8, $2.0
DATA expconst<>+120(SB)/8, $0x8000000000000000 // sign mask
GLOBL expconst<>+0(SB), RODATA, $128

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
DATA tanhconst<>+0(SB)/8, $0.625
DATA tanhconst<>+8(SB)/8, $4.4014845965556527147994e+01 // 0.5*MAXLOG
DATA tanhconst<>+16(SB)/8, $-9.64399179425052238628e-1  // tanhP[0]
DATA tanhconst<>+24(SB)/8, $-9.92877231001918586564e1   // tanhP[1]
DATA tanhconst<>+32(SB)/8, $-1.61468768441708447952e3   // tanhP[2]
DATA tanhconst<>+40(SB)/8, $1.12811678491632931402e2    // tanhQ[0]
DATA tanhconst<>+48(SB)/8, $2.23548839060100448583e3    // tanhQ[1]
DATA tanhconst<>+56(SB)/8, $4.84406305325125486048e3    // tanhQ[2]
GLOBL tanhconst<>+0(SB), RODATA, $64

// EXPCORE: Y0 = exp(Y0) lane-wise, Y9 = fast-path mask. The avxfma
// block of archExp, widened: n = rint(x*LOG2E); x -= n*LN2U (fused);
// x -= n*LN2L (fused); x *= 0.0625; 7-term fused Taylor; four add/mul
// squaring steps with the last mul fused into +1; scale by 2^n via
// exponent-field bit assembly. Lanes whose biased exponent leaves
// (0, 0x7FF), or with |x| > Overflow (covers ±Inf/NaN), are cleared
// from Y9 — their computed value is garbage and must not be used.
#define EXPCORE \
	VBROADCASTSD	expconst<>+0(SB), Y1   \
	VANDPD	Y0, Y1, Y1                     \ // |x|
	VBROADCASTSD	expconst<>+8(SB), Y2   \
	VCMPPD	$0x12, Y2, Y1, Y9              \ // ok = |x| <= Overflow (LE_OQ)
	VBROADCASTSD	expconst<>+16(SB), Y2  \
	VMULPD	Y0, Y2, Y2                     \ // LOG2E * x
	VCVTPD2DQY	Y2, X4                     \ // n (round to nearest, per MXCSR)
	VCVTDQ2PD	X4, Y3                     \ // float64(n)
	VBROADCASTSD	expconst<>+24(SB), Y2  \
	VFNMADD231PD	Y2, Y3, Y0             \ // x -= n*LN2U (single rounding)
	VBROADCASTSD	expconst<>+32(SB), Y2  \
	VFNMADD231PD	Y2, Y3, Y0             \ // x -= n*LN2L
	VBROADCASTSD	expconst<>+40(SB), Y2  \
	VMULPD	Y2, Y0, Y0                     \ // x *= 0.0625
	VBROADCASTSD	expconst<>+48(SB), Y1  \ // Taylor: p = c8
	VBROADCASTSD	expconst<>+56(SB), Y2  \
	VFMADD213PD	Y2, Y0, Y1                 \ // p = p*x + c7
	VBROADCASTSD	expconst<>+64(SB), Y2  \
	VFMADD213PD	Y2, Y0, Y1                 \
	VBROADCASTSD	expconst<>+72(SB), Y2  \
	VFMADD213PD	Y2, Y0, Y1                 \
	VBROADCASTSD	expconst<>+80(SB), Y2  \
	VFMADD213PD	Y2, Y0, Y1                 \
	VBROADCASTSD	expconst<>+88(SB), Y2  \
	VFMADD213PD	Y2, Y0, Y1                 \
	VBROADCASTSD	expconst<>+96(SB), Y2  \
	VFMADD213PD	Y2, Y0, Y1                 \ // p = p*x + 0.5
	VBROADCASTSD	expconst<>+104(SB), Y2 \
	VFMADD213PD	Y2, Y0, Y1                 \ // p = p*x + 1.0
	VMULPD	Y1, Y0, Y0                     \ // x *= p
	VBROADCASTSD	expconst<>+112(SB), Y2 \
	VADDPD	Y2, Y0, Y1                     \ // t = x + 2
	VMULPD	Y1, Y0, Y0                     \ // x *= t
	VADDPD	Y2, Y0, Y1                     \
	VMULPD	Y1, Y0, Y0                     \
	VADDPD	Y2, Y0, Y1                     \
	VMULPD	Y1, Y0, Y0                     \
	VADDPD	Y2, Y0, Y1                     \
	VBROADCASTSD	expconst<>+104(SB), Y2 \
	VFMADD213PD	Y2, Y1, Y0                 \ // x = x*t + 1
	VMOVDQU	expbias<>+0(SB), X5            \
	VPADDD	X5, X4, X4                     \ // biased = n + 1023
	VPXOR	X5, X5, X5                     \
	VPCMPGTD	X5, X4, X5                 \ // biased > 0
	VMOVDQU	expbias<>+16(SB), X6           \
	VPCMPGTD	X4, X6, X6                 \ // biased < 0x7FF
	VPAND	X6, X5, X5                     \
	VPMOVSXDQ	X5, Y5                     \
	VANDPD	Y5, Y9, Y9                     \ // fold into ok mask
	VPMOVSXDQ	X4, Y3                     \
	VPSLLQ	$52, Y3, Y3                    \ // 2^n as float64 bits
	VMULPD	Y3, Y0, Y0                     // result = fr * 2^n

// func sigmoid4(dst, src *float64) (ok uint8)
//
// The scalar Sigmoid branches on x >= 0 to keep exp's argument
// negative; both branches are e = Exp(-|x|) with numerator 1 (x >= 0)
// or e (x < 0) over denominator 1+e, which is how it is computed here
// (branch by blend). -0 and NaN take the same path as scalar: -0 >= 0
// is true in both, and NaN lanes are masked out for the fallback.
TEXT ·sigmoid4(SB), NOSPLIT, $0-17
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	VMOVUPD	(SI), Y8
	VBROADCASTSD	expconst<>+0(SB), Y0
	VANDPD	Y8, Y0, Y0  // |x|
	VBROADCASTSD	expconst<>+120(SB), Y1
	VORPD	Y1, Y0, Y0  // -|x|
	EXPCORE
	VXORPD	Y2, Y2, Y2
	VCMPPD	$0x1D, Y2, Y8, Y3 // x >= 0 (GE_OQ)
	VBROADCASTSD	expconst<>+104(SB), Y1
	VBLENDVPD	Y3, Y1, Y0, Y4 // num = x >= 0 ? 1 : e
	VADDPD	Y0, Y1, Y5         // 1 + e
	VDIVPD	Y5, Y4, Y0         // num / (1 + e)
	// Failed lanes keep the ORIGINAL input so the caller's scalar
	// fallback can recompute from dst even when dst aliases src.
	VBLENDVPD	Y9, Y0, Y8, Y0
	VMOVUPD	Y0, (DI)
	VMOVMSKPD	Y9, AX
	VZEROUPPER
	MOVB	AX, ok+16(FP)
	RET

// func tanh4(dst, src *float64)
//
// math.Tanh's three branches (math/tanh.go), all evaluated, blended by
// mask with the scalar switch's precedence (big beats mid beats poly):
//
//	z > 0.5*MAXLOG: ±1
//	z >= 0.625:     s = Exp(2z); 1 - 2/(s+1), negated for x < 0
//	default:        x == 0 ? x : Cephes x + x·s·P(s)/Q(s), s = x²
TEXT ·tanh4(SB), NOSPLIT, $0-16
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	VMOVUPD	(SI), Y8
	VBROADCASTSD	expconst<>+0(SB), Y0
	VANDPD	Y8, Y0, Y10   // z = |x|
	VADDPD	Y10, Y10, Y0  // 2z (doubling is exact; == 2*z bitwise)
	EXPCORE               // Y0 = s = Exp(2z); Y9 ignored (mid lanes
	                      // always hit the fast path: 2z in [1.25, 88.06])
	VBROADCASTSD	expconst<>+104(SB), Y1
	VADDPD	Y0, Y1, Y2    // s + 1
	VBROADCASTSD	expconst<>+112(SB), Y3
	VDIVPD	Y2, Y3, Y2    // 2 / (s+1)
	VSUBPD	Y2, Y1, Y7    // 1 - 2/(s+1)
	VBROADCASTSD	expconst<>+120(SB), Y3
	VANDPD	Y8, Y3, Y11   // sign(x)
	VXORPD	Y11, Y7, Y7   // negate mid result for x < 0

	VMULPD	Y8, Y8, Y0    // s2 = x*x
	VBROADCASTSD	tanhconst<>+16(SB), Y1
	VMULPD	Y0, Y1, Y1    // P0*s2
	VBROADCASTSD	tanhconst<>+24(SB), Y2
	VADDPD	Y2, Y1, Y1    // + P1
	VMULPD	Y0, Y1, Y1    // * s2
	VBROADCASTSD	tanhconst<>+32(SB), Y2
	VADDPD	Y2, Y1, Y1    // num
	VBROADCASTSD	tanhconst<>+40(SB), Y2
	VADDPD	Y2, Y0, Y3    // s2 + Q0
	VMULPD	Y0, Y3, Y3    // * s2
	VBROADCASTSD	tanhconst<>+48(SB), Y2
	VADDPD	Y2, Y3, Y3    // + Q1
	VMULPD	Y0, Y3, Y3    // * s2
	VBROADCASTSD	tanhconst<>+56(SB), Y2
	VADDPD	Y2, Y3, Y3    // den
	VMULPD	Y0, Y8, Y2    // x*s2
	VMULPD	Y1, Y2, Y2    // (x*s2)*num
	VDIVPD	Y3, Y2, Y2    // /den
	VADDPD	Y2, Y8, Y12   // x + x*s2*num/den
	VXORPD	Y3, Y3, Y3
	VCMPPD	$0x00, Y3, Y8, Y13 // x == 0 (EQ_OQ): return x, preserving -0
	VBLENDVPD	Y13, Y8, Y12, Y12

	VBROADCASTSD	tanhconst<>+0(SB), Y3
	VCMPPD	$0x1D, Y3, Y10, Y13 // z >= 0.625 (GE_OQ)
	VBLENDVPD	Y13, Y7, Y12, Y12
	VBROADCASTSD	tanhconst<>+8(SB), Y3
	VCMPPD	$0x1E, Y3, Y10, Y13 // z > 0.5*MAXLOG (GT_OQ)
	VBROADCASTSD	expconst<>+104(SB), Y3
	VORPD	Y11, Y3, Y3         // ±1 with x's sign
	VBLENDVPD	Y13, Y3, Y12, Y12
	VMOVUPD	Y12, (DI)
	VZEROUPPER
	RET
