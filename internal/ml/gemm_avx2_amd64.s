// The AVX2 row kernel, rowsAcc and rowsAccStrided: the accumulation
// kernel of the avx2 family, behind inference and every product of the
// minibatch trainer (rowkernel.go, DESIGN.md decisions 18-20, 36 and
// 38). The two share one body (rowsacc_amd64.h) and differ only in how
// a walk finds its terms: a column list, or every column of a strided
// input with its exact zeros passed by. Deliberately no
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
// The walk is the column list: CX counts up from -nnz to 0 over it (R12
// points past its end), and each term is column idx[CX] with input
// x[idx[CX]] — every listed term, zero or not.
TEXT ·rowsAcc(SB), NOSPLIT, $0-56
	MOVQ	out+0(FP), DI
	MOVQ	rows+8(FP), R8
	MOVQ	col+16(FP), SI
	MOVQ	strideB+24(FP), R10
	MOVQ	x+32(FP), R11
	MOVQ	idx+40(FP), R12
	MOVQ	nnz+48(FP), R9
	TESTQ	R9, R9
	JE	rowsdone // no terms: out stays as it is
	LEAQ	(R12)(R9*8), R12

#define WALK_START \
	MOVQ	R9, CX; \
	NEGQ	CX

#define TERM(skip) \
	MOVQ	(R12)(CX*8), AX; \
	MOVQ	AX, DX; \
	IMULQ	R10, DX; \
	ADDQ	SI, DX; \
	VBROADCASTSD	(R11)(AX*8), Y8

#define NEXT \
	INCQ	CX

#include "rowsacc_amd64.h"

#undef WALK_START
#undef TERM
#undef NEXT

// func rowsAccStrided(out *float64, rows int, col *float64, strideB int, x *float64, xStrideB int, n int)
//
// The walk is every column j in [0, n) in order, its input x[j*xStrideB/8]:
// DX and AX step through the columns and the inputs, CX counts up from
// -n to 0, and a term whose input is an exact zero (±0: no bit set but
// the sign) is passed by with one integer test, never multiplied.
TEXT ·rowsAccStrided(SB), NOSPLIT, $0-56
	MOVQ	out+0(FP), DI
	MOVQ	rows+8(FP), R8
	MOVQ	col+16(FP), SI
	MOVQ	strideB+24(FP), R10
	MOVQ	x+32(FP), R11
	MOVQ	xStrideB+40(FP), R12
	MOVQ	n+48(FP), R9
	TESTQ	R9, R9
	JE	rowsdone

#define WALK_START \
	MOVQ	R9, CX; \
	NEGQ	CX; \
	MOVQ	SI, DX; \
	MOVQ	R11, AX

#define TERM(skip) \
	MOVQ	(AX), R13; \
	SHLQ	$1, R13; \
	JZ	skip; \
	VBROADCASTSD	(AX), Y8

#define NEXT \
	ADDQ	R10, DX; \
	ADDQ	R12, AX; \
	INCQ	CX

#include "rowsacc_amd64.h"

#undef WALK_START
#undef TERM
#undef NEXT

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
