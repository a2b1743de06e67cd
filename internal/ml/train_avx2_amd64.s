// The minibatch trainer's elementwise passes, 4 lanes per instruction
// over the whole 4-lane groups of n (the caller finishes the tail in
// Go): the LSTM's gate gradients, the bias gradient's lane sum and the
// Adam update (train_batch.go, batch.go, optimizer.go; DESIGN.md
// decision 38). As in cellWide, each lane is the Go expression's
// operations in its order, one rounding each — VMULPD, VADDPD, VSUBPD,
// VDIVPD and VSQRTPD, never fused — so every element is bitwise the
// scalar loop's. They need only AVX; their callers run them under
// useWideGates. Y15, R14 and R15 are left untouched, as in the row
// kernel.

//go:build !purego

#include "textflag.h"

DATA one<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// func lstmGateGradsWide(z, dh, dhIn, dc, ctc, cPrev *float64, h int)
//
// One lane's LSTM gate gradients: z holds the lane's i, f, g, o
// activations in four quarters of h, overwritten with their
// pre-activation gradients; dh (plus dhIn unless it is nil) is the
// gradient at h, dc the cell carry, updated in place; ctc = tanh(c) and
// cPrev the step's cached cell states. Per element j, as the Go loop:
//
//	dhv     = dh + dhIn
//	do      = dhv*tc
//	dcTotal = dc + (dhv*o)*(1 - tc*tc)
//	z[i] = (dcTotal*g) * (i*(1-i)),  z[f] = (dcTotal*cPrev) * (f*(1-f))
//	z[g] = (dcTotal*i) * (1 - g*g),  z[o] = do * (o*(1-o))
//	dc   = dcTotal*f
TEXT ·lstmGateGradsWide(SB), NOSPLIT, $0-56
	MOVQ	z+0(FP), DI
	MOVQ	dh+8(FP), R9
	MOVQ	dhIn+16(FP), R10
	MOVQ	dc+24(FP), R11
	MOVQ	ctc+32(FP), R12
	MOVQ	cPrev+40(FP), R13
	MOVQ	h+48(FP), CX
	LEAQ	(DI)(CX*8), SI // the f quarter
	LEAQ	(SI)(CX*8), DX // the g quarter
	LEAQ	(DX)(CX*8), R8 // the o quarter
	SUBQ	$4, CX         // the last index a group may start at
	XORQ	AX, AX
	VBROADCASTSD	one<>(SB), Y14

gradloop:
	CMPQ	AX, CX
	JGT	graddone
	VMOVUPD	(R9)(AX*8), Y0
	TESTQ	R10, R10
	JZ	gradnoin
	VADDPD	(R10)(AX*8), Y0, Y0 // dhv = dh + dhIn

gradnoin:
	VMOVUPD	(R12)(AX*8), Y1   // tc
	VMOVUPD	(R8)(AX*8), Y2    // o
	VMULPD	Y1, Y0, Y3        // do = dhv*tc
	VMULPD	Y1, Y1, Y4
	VSUBPD	Y4, Y14, Y4       // 1 - tc*tc
	VMULPD	Y2, Y0, Y5        // dhv*o
	VMULPD	Y4, Y5, Y5        // (dhv*o)*(1 - tc*tc)
	VMOVUPD	(R11)(AX*8), Y6
	VADDPD	Y5, Y6, Y6        // dcTotal
	VMOVUPD	(DI)(AX*8), Y7    // i
	VMOVUPD	(SI)(AX*8), Y8    // f
	VMOVUPD	(DX)(AX*8), Y9    // g
	VMULPD	Y9, Y6, Y10       // di = dcTotal*g
	VMULPD	(R13)(AX*8), Y6, Y11 // df = dcTotal*cPrev
	VMULPD	Y7, Y6, Y12       // dg = dcTotal*i
	VSUBPD	Y7, Y14, Y13
	VMULPD	Y13, Y7, Y13      // i*(1-i)
	VMULPD	Y13, Y10, Y10
	VMOVUPD	Y10, (DI)(AX*8)
	VSUBPD	Y8, Y14, Y13
	VMULPD	Y13, Y8, Y13      // f*(1-f)
	VMULPD	Y13, Y11, Y11
	VMOVUPD	Y11, (SI)(AX*8)
	VMULPD	Y9, Y9, Y13
	VSUBPD	Y13, Y14, Y13     // 1 - g*g
	VMULPD	Y13, Y12, Y12
	VMOVUPD	Y12, (DX)(AX*8)
	VSUBPD	Y2, Y14, Y13
	VMULPD	Y13, Y2, Y13      // o*(1-o)
	VMULPD	Y13, Y3, Y3
	VMOVUPD	Y3, (R8)(AX*8)
	VMULPD	Y8, Y6, Y6        // dc = dcTotal*f
	VMOVUPD	Y6, (R11)(AX*8)
	ADDQ	$4, AX
	JMP	gradloop

graddone:
	VZEROUPPER
	RET

// func biasGradWide(grad, dys *float64, strideB, lanes, n int)
//
// grad[r] += dys[a*strideB/8 + r] for a = 0, 1, …, lanes-1 in turn, for
// the whole 4-row groups of n: each group's sum stays in a register
// across the lanes, 16 rows (four independent chains) at a time while
// 16 remain, then 4.
TEXT ·biasGradWide(SB), NOSPLIT, $0-40
	MOVQ	grad+0(FP), DI
	MOVQ	dys+8(FP), SI
	MOVQ	strideB+16(FP), R10
	MOVQ	lanes+24(FP), R9
	MOVQ	n+32(FP), R8
	TESTQ	R9, R9
	JE	biasdone

bias16:
	CMPQ	R8, $16
	JL	bias4
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	MOVQ	SI, DX
	MOVQ	R9, CX

bias16lanes:
	VADDPD	(DX), Y0, Y0
	VADDPD	32(DX), Y1, Y1
	VADDPD	64(DX), Y2, Y2
	VADDPD	96(DX), Y3, Y3
	ADDQ	R10, DX
	DECQ	CX
	JNZ	bias16lanes
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	ADDQ	$128, DI
	ADDQ	$128, SI
	SUBQ	$16, R8
	JMP	bias16

bias4:
	CMPQ	R8, $4
	JL	biasdone
	VMOVUPD	(DI), Y0
	MOVQ	SI, DX
	MOVQ	R9, CX

bias4lanes:
	VADDPD	(DX), Y0, Y0
	ADDQ	R10, DX
	DECQ	CX
	JNZ	bias4lanes
	VMOVUPD	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	$4, R8
	JMP	bias4

biasdone:
	VZEROUPPER
	RET

// func adamWide(data, grad, m, v *float64, n int, k *adamCoef)
//
// One Adam update of the whole 4-lane groups of n, with k's
// coefficients (optimizer.go), per element as adamLanes' loop:
//
//	m    = b1*m + c1*g
//	v    = b2*v + (c2*g)*g
//	data = data - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
//	grad = +0
TEXT ·adamWide(SB), NOSPLIT, $0-48
	MOVQ	data+0(FP), DI
	MOVQ	grad+8(FP), SI
	MOVQ	m+16(FP), DX
	MOVQ	v+24(FP), R8
	MOVQ	n+32(FP), CX
	MOVQ	k+40(FP), AX
	VBROADCASTSD	0(AX), Y6   // b1
	VBROADCASTSD	8(AX), Y7   // c1
	VBROADCASTSD	16(AX), Y8  // b2
	VBROADCASTSD	24(AX), Y9  // c2
	VBROADCASTSD	32(AX), Y10 // bc1
	VBROADCASTSD	40(AX), Y11 // bc2
	VBROADCASTSD	48(AX), Y12 // lr
	VBROADCASTSD	56(AX), Y13 // eps
	VXORPD	Y14, Y14, Y14
	SUBQ	$4, CX
	XORQ	AX, AX

adamloop:
	CMPQ	AX, CX
	JGT	adamdone
	VMOVUPD	(SI)(AX*8), Y0     // g
	VMULPD	(DX)(AX*8), Y6, Y1 // b1*m
	VMULPD	Y0, Y7, Y2         // c1*g
	VADDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (DX)(AX*8)
	VMULPD	(R8)(AX*8), Y8, Y3 // b2*v
	VMULPD	Y0, Y9, Y4         // c2*g
	VMULPD	Y0, Y4, Y4         // (c2*g)*g
	VADDPD	Y4, Y3, Y3
	VMOVUPD	Y3, (R8)(AX*8)
	VDIVPD	Y10, Y1, Y1        // mh = m/bc1
	VDIVPD	Y11, Y3, Y3        // vh = v/bc2
	VSQRTPD	Y3, Y3
	VADDPD	Y13, Y3, Y3        // sqrt(vh) + eps
	VMULPD	Y1, Y12, Y1        // lr*mh
	VDIVPD	Y3, Y1, Y1
	VMOVUPD	(DI)(AX*8), Y5
	VSUBPD	Y1, Y5, Y5
	VMOVUPD	Y5, (DI)(AX*8)
	VMOVUPD	Y14, (SI)(AX*8)
	ADDQ	$4, AX
	JMP	adamloop

adamdone:
	VZEROUPPER
	RET
