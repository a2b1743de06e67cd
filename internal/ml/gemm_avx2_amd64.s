// The AVX2 row kernel, rowsAcc: the one accumulation kernel of the avx2
// family, behind inference and every product of the minibatch trainer
// (rowkernel.go, DESIGN.md decisions 18-20 and 36). Deliberately no
// VFMADD: its single rounding would diverge from the scalar Dot chain,
// which rounds twice per term. Y15 is left untouched (the Go internal
// ABI reserves X15 as a zero register), R14/R15 are reserved by the Go
// register ABI, and VZEROUPPER before RET avoids SSE/AVX transition
// stalls in the scalar code that follows.

//go:build !purego

#include "textflag.h"

// tailmask<>: lane masks for the tail's last, partial group. The four
// quadwords from index 3-m have their first m lanes set.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $48

// TERM points DX at column idx[CX] of the block and broadcasts its input
// x[idx[CX]] into Y8.
#define TERM \
	MOVQ	(R12)(CX*8), AX; \
	MOVQ	AX, DX; \
	IMULQ	R10, DX; \
	ADDQ	SI, DX; \
	VBROADCASTSD	(R11)(AX*8), Y8

// ACC adds column rows [off/8, off/8+4) times the input onto acc.
#define ACC(off, acc, tmp) \
	VMULPD	off(DX), Y8, tmp; \
	VADDPD	tmp, acc, acc

// MASKACC does the same for the masked group at off, into Y7: its loads
// read only the lanes Y13 selects.
#define MASKACC(off) \
	VMASKMOVPD	off(DX), Y13, Y9; \
	VMULPD	Y9, Y8, Y9; \
	VADDPD	Y9, Y7, Y7

// func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int)
//
// Vectorized across output ROWS of a k-major packed matrix, one
// accumulator component per row. Each row block loads its accumulators
// from out, walks the column list in order — broadcast x[k], then VMULPD
// and VADDPD against column k's slice — and stores them back, so every
// element is the scalar DotAcc chain over the listed columns. Blocks of
// 16 rows (Y0-Y3) run while more than 31 rows remain or exactly 16 do,
// so a multiple of 16 rows is all 16-row passes; the last 1-31 rows are
// one tail pass of up to eight accumulators: f = rows/4 whole groups in
// Y0..Y(f-1) and, when rows%4 = m > 0, a group of m rows in Y7 whose
// loads and stores are masked to those m lanes, so nothing past the
// row range is read or written.
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
	JE	block16
	CMPQ	R8, $31
	JLE	tail

block16:
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	XORQ	CX, CX

terms16:
	CMPQ	CX, R9
	JGE	store16
	TERM
	ACC(0, Y0, Y4)
	ACC(32, Y1, Y5)
	ACC(64, Y2, Y6)
	ACC(96, Y3, Y7)
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

	// The tail: 0 <= R8 <= 31 rows, R8 != 16. BX = f whole groups,
	// R8 = m rows of the masked group, R13 = that group's out address.
tail:
	TESTQ	R8, R8
	JE	rowsdone
	TESTQ	R9, R9
	JE	rowsdone // no terms: out stays as it is
	MOVQ	R8, BX
	SHRQ	$2, BX
	ANDQ	$3, R8
	JE	loadfull
	MOVQ	$3, AX
	SUBQ	R8, AX
	LEAQ	tailmask<>(SB), DX
	VMOVDQU	(DX)(AX*8), Y13
	MOVQ	BX, R13
	SHLQ	$5, R13
	ADDQ	DI, R13
	VMASKMOVPD	(R13), Y13, Y7

loadfull:
	MOVQ	R9, CX
	NEGQ	CX
	LEAQ	(R12)(R9*8), R12 // CX counts up from -nnz to 0 over the list
	CMPQ	BX, $1
	JL	tail0m
	VMOVUPD	(DI), Y0
	CMPQ	BX, $2
	JL	tail1
	VMOVUPD	32(DI), Y1
	CMPQ	BX, $3
	JL	tail2
	VMOVUPD	64(DI), Y2
	CMPQ	BX, $4
	JL	tail3
	VMOVUPD	96(DI), Y3
	CMPQ	BX, $5
	JL	tail4
	VMOVUPD	128(DI), Y4
	CMPQ	BX, $6
	JL	tail5
	VMOVUPD	160(DI), Y5
	CMPQ	BX, $7
	JL	tail6
	VMOVUPD	192(DI), Y6
	JMP	tail7

	// One loop per f, with and without the masked group: the term loop
	// itself branches only to repeat.
tail0m:
	TERM
	MASKACC(0)
	INCQ	CX
	JNZ	tail0m
	JMP	tailstore

tail1:
	TESTQ	R8, R8
	JNE	tail1m

tail1u:
	TERM
	ACC(0, Y0, Y10)
	INCQ	CX
	JNZ	tail1u
	JMP	tailstore

tail1m:
	TERM
	MASKACC(32)
	ACC(0, Y0, Y10)
	INCQ	CX
	JNZ	tail1m
	JMP	tailstore

tail2:
	TESTQ	R8, R8
	JNE	tail2m

tail2u:
	TERM
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	INCQ	CX
	JNZ	tail2u
	JMP	tailstore

tail2m:
	TERM
	MASKACC(64)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	INCQ	CX
	JNZ	tail2m
	JMP	tailstore

tail3:
	TESTQ	R8, R8
	JNE	tail3m

tail3u:
	TERM
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	INCQ	CX
	JNZ	tail3u
	JMP	tailstore

tail3m:
	TERM
	MASKACC(96)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	INCQ	CX
	JNZ	tail3m
	JMP	tailstore

tail4:
	TESTQ	R8, R8
	JNE	tail4m

tail4u:
	TERM
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	INCQ	CX
	JNZ	tail4u
	JMP	tailstore

tail4m:
	TERM
	MASKACC(128)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	INCQ	CX
	JNZ	tail4m
	JMP	tailstore

tail5:
	TESTQ	R8, R8
	JNE	tail5m

tail5u:
	TERM
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	INCQ	CX
	JNZ	tail5u
	JMP	tailstore

tail5m:
	TERM
	MASKACC(160)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	INCQ	CX
	JNZ	tail5m
	JMP	tailstore

tail6:
	TESTQ	R8, R8
	JNE	tail6m

tail6u:
	TERM
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)
	INCQ	CX
	JNZ	tail6u
	JMP	tailstore

tail6m:
	TERM
	MASKACC(192)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)
	INCQ	CX
	JNZ	tail6m
	JMP	tailstore

tail7:
	TESTQ	R8, R8
	JNE	tail7m

tail7u:
	TERM
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)
	ACC(192, Y6, Y12)
	INCQ	CX
	JNZ	tail7u
	JMP	tailstore

tail7m:
	TERM
	MASKACC(224)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)
	ACC(192, Y6, Y12)
	INCQ	CX
	JNZ	tail7m
	JMP	tailstore

tailstore:
	TESTQ	R8, R8
	JE	storefull
	VMASKMOVPD	Y7, Y13, (R13)

storefull:
	CMPQ	BX, $1
	JL	rowsdone
	VMOVUPD	Y0, (DI)
	CMPQ	BX, $2
	JL	rowsdone
	VMOVUPD	Y1, 32(DI)
	CMPQ	BX, $3
	JL	rowsdone
	VMOVUPD	Y2, 64(DI)
	CMPQ	BX, $4
	JL	rowsdone
	VMOVUPD	Y3, 96(DI)
	CMPQ	BX, $5
	JL	rowsdone
	VMOVUPD	Y4, 128(DI)
	CMPQ	BX, $6
	JL	rowsdone
	VMOVUPD	Y5, 160(DI)
	CMPQ	BX, $7
	JL	rowsdone
	VMOVUPD	Y6, 192(DI)

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
