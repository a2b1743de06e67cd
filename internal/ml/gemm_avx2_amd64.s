// AVX2 lane-batched GEMM microkernel (the trainer's dense forward
// product) and the row kernel (rowsAcc, at the end: inference and the
// trainer's other products). Like the SSE2
// gemm8, gemm16's vectorization is across LANES: each of the 16 lanes keeps
// its own accumulator component that sums w[k]*x[k] in ascending-k
// order with a separate VMULPD and VADDPD per term — deliberately NOT
// VFMADD, whose single rounding would diverge from the scalar Dot chain
// (two roundings per term). Two weight rows are blocked per pass so 8
// YMM accumulators stay live across the k loop, amortizing each tile
// load over two rows.
//
// Register budget (gemm16): Y0-Y7 accumulators, Y8-Y11 tile slices,
// Y12/Y13 broadcast weights, Y14 mul temp. Y15 is left untouched (the
// Go internal ABI reserves X15 as a zero register; hand-written ABI0
// code may clobber it, but avoiding it entirely is cheap). R14/R15 are
// reserved by the Go register ABI, so cursors use BX/DX/R13.
//
// VEX encodings throughout; VZEROUPPER before every RET to avoid
// SSE/AVX transition stalls in the scalar code that follows.

//go:build !purego

#include "textflag.h"

// func gemm16(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int)
TEXT ·gemm16(SB), NOSPLIT, $0-56
	MOVQ	w+0(FP), SI
	MOVQ	rows+8(FP), R8
	MOVQ	k+16(FP), R9
	MOVQ	xt+24(FP), DI
	MOVQ	strideB+32(FP), R10
	MOVQ	out+40(FP), R11
	MOVQ	outStrideB+48(FP), R12

	MOVQ	R9, AX  // AX = k*8 = byte length of one weight row
	SHLQ	$3, AX

pairloop:
	CMPQ	R8, $2
	JL	rowtail

	// Two rows r and r+1: accumulators row r in Y0-Y3 (lanes 0-15),
	// row r+1 in Y4-Y7.
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y4, Y4, Y4
	VXORPD	Y5, Y5, Y5
	VXORPD	Y6, Y6, Y6
	VXORPD	Y7, Y7, Y7
	MOVQ	DI, DX          // xt cursor (k = 0)
	MOVQ	R9, CX          // k countdown
	LEAQ	(SI)(AX*1), R13 // weight cursor for row r+1

kloop2:
	VBROADCASTSD	(SI), Y12
	VBROADCASTSD	(R13), Y13
	// one k-slice of the tile: lanes 0..15
	VMOVUPD	(DX), Y8
	VMOVUPD	32(DX), Y9
	VMOVUPD	64(DX), Y10
	VMOVUPD	96(DX), Y11
	// multiply THEN add — two rounding steps, matching scalar s += w*x
	VMULPD	Y8, Y12, Y14
	VADDPD	Y14, Y0, Y0
	VMULPD	Y9, Y12, Y14
	VADDPD	Y14, Y1, Y1
	VMULPD	Y10, Y12, Y14
	VADDPD	Y14, Y2, Y2
	VMULPD	Y11, Y12, Y14
	VADDPD	Y14, Y3, Y3
	VMULPD	Y8, Y13, Y14
	VADDPD	Y14, Y4, Y4
	VMULPD	Y9, Y13, Y14
	VADDPD	Y14, Y5, Y5
	VMULPD	Y10, Y13, Y14
	VADDPD	Y14, Y6, Y6
	VMULPD	Y11, Y13, Y14
	VADDPD	Y14, Y7, Y7
	ADDQ	$8, SI
	ADDQ	$8, R13
	ADDQ	R10, DX
	DECQ	CX
	JNZ	kloop2

	// Scatter: lane L of row r goes to out + L*outStrideB + 0, row r+1
	// to out + L*outStrideB + 8. Walk lanes with BX, four per acc pair.
	MOVQ	R11, BX
	VMOVSD	X0, (BX)
	VMOVSD	X4, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	VMOVHPD	X4, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y0, X0
	VEXTRACTF128	$1, Y4, X4
	VMOVSD	X0, (BX)
	VMOVSD	X4, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	VMOVHPD	X4, 8(BX)
	ADDQ	R12, BX

	VMOVSD	X1, (BX)
	VMOVSD	X5, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	VMOVHPD	X5, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y1, X1
	VEXTRACTF128	$1, Y5, X5
	VMOVSD	X1, (BX)
	VMOVSD	X5, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	VMOVHPD	X5, 8(BX)
	ADDQ	R12, BX

	VMOVSD	X2, (BX)
	VMOVSD	X6, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	VMOVHPD	X6, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y2, X2
	VEXTRACTF128	$1, Y6, X6
	VMOVSD	X2, (BX)
	VMOVSD	X6, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	VMOVHPD	X6, 8(BX)
	ADDQ	R12, BX

	VMOVSD	X3, (BX)
	VMOVSD	X7, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)
	VMOVHPD	X7, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y3, X3
	VEXTRACTF128	$1, Y7, X7
	VMOVSD	X3, (BX)
	VMOVSD	X7, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)
	VMOVHPD	X7, 8(BX)

	MOVQ	R13, SI  // now points at row r+2
	ADDQ	$16, R11 // out advances two rows (8 bytes each)
	SUBQ	$2, R8
	JMP	pairloop

rowtail:
	TESTQ	R8, R8
	JE	done

	// Odd final row: accumulators Y0-Y3 only.
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	DI, DX
	MOVQ	R9, CX

kloop1:
	VBROADCASTSD	(SI), Y12
	VMOVUPD	(DX), Y8
	VMOVUPD	32(DX), Y9
	VMOVUPD	64(DX), Y10
	VMOVUPD	96(DX), Y11
	VMULPD	Y8, Y12, Y14
	VADDPD	Y14, Y0, Y0
	VMULPD	Y9, Y12, Y14
	VADDPD	Y14, Y1, Y1
	VMULPD	Y10, Y12, Y14
	VADDPD	Y14, Y2, Y2
	VMULPD	Y11, Y12, Y14
	VADDPD	Y14, Y3, Y3
	ADDQ	$8, SI
	ADDQ	R10, DX
	DECQ	CX
	JNZ	kloop1

	MOVQ	R11, BX
	VMOVSD	X0, (BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y0, X0
	VMOVSD	X0, (BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	ADDQ	R12, BX

	VMOVSD	X1, (BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y1, X1
	VMOVSD	X1, (BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	ADDQ	R12, BX

	VMOVSD	X2, (BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y2, X2
	VMOVSD	X2, (BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	ADDQ	R12, BX

	VMOVSD	X3, (BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y3, X3
	VMOVSD	X3, (BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)

done:
	VZEROUPPER
	RET

// func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int)
//
// The inference row kernel: vectorized across output ROWS of a k-major
// packed matrix, one accumulator component per row. Each row block loads
// its accumulators from out, walks the column list in order — broadcast
// x[k], then VMULPD and VADDPD against column k's slice, never FMA — and
// stores them back, so every element is the scalar DotAcc chain over the
// listed columns. Blocks of 16 rows (Y0-Y3) keep both FP ports busy at
// the widths inference uses; then 4-row blocks (Y0) and single rows (X0).
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
