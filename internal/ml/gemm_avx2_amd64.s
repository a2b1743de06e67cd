// The AVX2 row kernel, rowsAcc: the one accumulation kernel of the avx2
// family, behind inference and every product of the minibatch trainer
// (rowkernel.go, DESIGN.md decisions 18-20). Deliberately no VFMADD: its
// single rounding would diverge from the scalar Dot chain, which rounds
// twice per term. Y15 is left untouched (the Go internal ABI reserves X15
// as a zero register), R14/R15 are reserved by the Go register ABI, and
// VZEROUPPER before RET avoids SSE/AVX transition stalls in the scalar
// code that follows.

//go:build !purego

#include "textflag.h"

// func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int)
//
// Vectorized across output ROWS of a k-major packed matrix, one
// accumulator component per row. Each row block loads its accumulators
// from out, walks the column list in order — broadcast x[k], then VMULPD
// and VADDPD against column k's slice — and stores them back, so every
// element is the scalar DotAcc chain over the listed columns. Blocks of 16 rows (Y0-Y3) keep both FP ports busy at
// the default widths; then 4-row blocks (Y0) and single rows (X0).
TEXT ·rowsAcc(SB), NOSPLIT, $0-56
	MOVQ	out+0(FP), DI
	MOVQ	rows+8(FP), R8
	MOVQ	col+16(FP), SI
	MOVQ	strideB+24(FP), R10
	MOVQ	x+32(FP), R11
	MOVQ	idx+40(FP), R12
	MOVQ	nnz+48(FP), R9

rows16:
	CMPQ	R8, $16
	JL	rows4
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	XORQ	CX, CX

terms16:
	CMPQ	CX, R9
	JGE	store16
	MOVQ	(R12)(CX*8), AX // k
	MOVQ	AX, DX
	IMULQ	R10, DX
	ADDQ	SI, DX          // column k of this block
	VBROADCASTSD	(R11)(AX*8), Y4
	VMULPD	(DX), Y4, Y5
	VADDPD	Y5, Y0, Y0
	VMULPD	32(DX), Y4, Y6
	VADDPD	Y6, Y1, Y1
	VMULPD	64(DX), Y4, Y7
	VADDPD	Y7, Y2, Y2
	VMULPD	96(DX), Y4, Y8
	VADDPD	Y8, Y3, Y3
	INCQ	CX
	JMP	terms16

store16:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	ADDQ	$128, DI
	ADDQ	$128, SI
	SUBQ	$16, R8
	JMP	rows16

rows4:
	CMPQ	R8, $4
	JL	rows1
	VMOVUPD	(DI), Y0
	XORQ	CX, CX

terms4:
	CMPQ	CX, R9
	JGE	store4
	MOVQ	(R12)(CX*8), AX
	MOVQ	AX, DX
	IMULQ	R10, DX
	ADDQ	SI, DX
	VBROADCASTSD	(R11)(AX*8), Y4
	VMULPD	(DX), Y4, Y5
	VADDPD	Y5, Y0, Y0
	INCQ	CX
	JMP	terms4

store4:
	VMOVUPD	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	$4, R8
	JMP	rows4

rows1:
	TESTQ	R8, R8
	JE	rowsdone
	VMOVSD	(DI), X0
	XORQ	CX, CX

terms1:
	CMPQ	CX, R9
	JGE	store1
	MOVQ	(R12)(CX*8), AX
	MOVQ	AX, DX
	IMULQ	R10, DX
	ADDQ	SI, DX
	VMOVSD	(R11)(AX*8), X4
	VMULSD	(DX), X4, X5
	VADDSD	X5, X0, X0
	INCQ	CX
	JMP	terms1

store1:
	VMOVSD	X0, (DI)
	ADDQ	$8, DI
	ADDQ	$8, SI
	DECQ	R8
	JMP	rows1

rowsdone:
	VZEROUPPER
	RET

// The lane banks' and the trainer's elementwise LSTM passes, 4 lanes per
// instruction over the whole 4-lane groups of n (the caller finishes
// the tail in Go). Each lane is the Go expression's operations in its
// order, one rounding each — VMULPD then VADDPD, never fused — so every
// element is bitwise the scalar loop's.

// func addSumWide(dst, a, b *float64, n int)
//
// dst[i] = dst[i] + (a[i] + b[i]): the pre-activation z += zh + B.
TEXT ·addSumWide(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	b+16(FP), DX
	MOVQ	n+24(FP), CX
	SUBQ	$4, CX // the last index a group may start at
	XORQ	AX, AX

addsumloop:
	CMPQ	AX, CX
	JGT	addsumdone
	VMOVUPD	(SI)(AX*8), Y0
	VADDPD	(DX)(AX*8), Y0, Y0 // a + b
	VMOVUPD	(DI)(AX*8), Y1
	VADDPD	Y0, Y1, Y1         // dst + (a + b)
	VMOVUPD	Y1, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	addsumloop

addsumdone:
	VZEROUPPER
	RET

// func cellWide(c, f, in, cand *float64, n int)
//
// c[i] = f[i]*c[i] + in[i]*cand[i]: the LSTM cell update, cand the g gate.
TEXT ·cellWide(SB), NOSPLIT, $0-40
	MOVQ	c+0(FP), DI
	MOVQ	f+8(FP), SI
	MOVQ	in+16(FP), DX
	MOVQ	cand+24(FP), R8
	MOVQ	n+32(FP), CX
	SUBQ	$4, CX
	XORQ	AX, AX

cellloop:
	CMPQ	AX, CX
	JGT	celldone
	VMOVUPD	(SI)(AX*8), Y0
	VMULPD	(DI)(AX*8), Y0, Y0 // f*c
	VMOVUPD	(DX)(AX*8), Y1
	VMULPD	(R8)(AX*8), Y1, Y1 // in*cand
	VADDPD	Y1, Y0, Y0         // f*c + in*cand
	VMOVUPD	Y0, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	cellloop

celldone:
	VZEROUPPER
	RET

// func prodWide(dst, a, b *float64, n int)
//
// dst[i] = a[i] * b[i]: the LSTM output h = o·tanh(c).
TEXT ·prodWide(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	b+16(FP), DX
	MOVQ	n+24(FP), CX
	SUBQ	$4, CX
	XORQ	AX, AX

prodloop:
	CMPQ	AX, CX
	JGT	proddone
	VMOVUPD	(SI)(AX*8), Y0
	VMULPD	(DX)(AX*8), Y0, Y0 // a*b
	VMOVUPD	Y0, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	prodloop

proddone:
	VZEROUPPER
	RET
