// The body shared by the row kernels rowsAcc and rowsAccStrided
// (gemm_avx2_amd64.s), which differ only in how a term walk finds its
// terms. Each includes this file inside its TEXT block after loading
// its arguments and returning early when it has no terms, with three
// macros defined:
//
//	WALK_START  start a walk over every term, from column base SI
//	TERM(skip)  point DX at the current term's column and broadcast
//	            its input into Y8, or jump to skip to pass the term by
//	NEXT        advance to the next term; ZF set once the walk is done
//
// Registers the body owns: DI out, R8 rows left, SI the row block's
// first element of column 0, BX the tail's whole groups, R13 the tail's
// masked group's out address (recomputed after the walk, so TERM may
// use R13 as a temporary), Y0-Y14 the accumulators and temporaries.
// Labels are local to the including TEXT block.
//
// Vectorized across output ROWS of a k-major packed matrix, one
// accumulator component per row. Each row block loads its accumulators
// from out, walks the terms in order — broadcast the input, then
// VMULPD and VADDPD against the column's slice — and stores them back,
// so every element is the scalar DotAcc chain over the walked terms.
// Blocks of 16 rows (Y0-Y3) run while more than 31 rows remain or
// exactly 16 do, so a multiple of 16 rows is all 16-row passes; the
// last 1-31 rows are one tail pass of up to eight accumulators: f =
// rows/4 whole groups in Y0..Y(f-1) and, when rows%4 = m > 0, a group
// of m rows in Y7 whose loads and stores are masked to those m lanes,
// so nothing past the row range is read or written.

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
	WALK_START

terms16:
	TERM(next16)
	ACC(0, Y0, Y4)
	ACC(32, Y1, Y5)
	ACC(64, Y2, Y6)
	ACC(96, Y3, Y7)

next16:
	NEXT
	JNZ	terms16
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
	WALK_START
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
	// itself branches only to repeat (and, in rowsAccStrided, to pass a
	// zero input by).
tail0m:
	TERM(next0m)
	MASKACC(0)

next0m:
	NEXT
	JNZ	tail0m
	JMP	tailstore

tail1:
	TESTQ	R8, R8
	JNE	tail1m

tail1u:
	TERM(next1u)
	ACC(0, Y0, Y10)

next1u:
	NEXT
	JNZ	tail1u
	JMP	tailstore

tail1m:
	TERM(next1m)
	MASKACC(32)
	ACC(0, Y0, Y10)

next1m:
	NEXT
	JNZ	tail1m
	JMP	tailstore

tail2:
	TESTQ	R8, R8
	JNE	tail2m

tail2u:
	TERM(next2u)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)

next2u:
	NEXT
	JNZ	tail2u
	JMP	tailstore

tail2m:
	TERM(next2m)
	MASKACC(64)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)

next2m:
	NEXT
	JNZ	tail2m
	JMP	tailstore

tail3:
	TESTQ	R8, R8
	JNE	tail3m

tail3u:
	TERM(next3u)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)

next3u:
	NEXT
	JNZ	tail3u
	JMP	tailstore

tail3m:
	TERM(next3m)
	MASKACC(96)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)

next3m:
	NEXT
	JNZ	tail3m
	JMP	tailstore

tail4:
	TESTQ	R8, R8
	JNE	tail4m

tail4u:
	TERM(next4u)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)

next4u:
	NEXT
	JNZ	tail4u
	JMP	tailstore

tail4m:
	TERM(next4m)
	MASKACC(128)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)

next4m:
	NEXT
	JNZ	tail4m
	JMP	tailstore

tail5:
	TESTQ	R8, R8
	JNE	tail5m

tail5u:
	TERM(next5u)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)

next5u:
	NEXT
	JNZ	tail5u
	JMP	tailstore

tail5m:
	TERM(next5m)
	MASKACC(160)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)

next5m:
	NEXT
	JNZ	tail5m
	JMP	tailstore

tail6:
	TESTQ	R8, R8
	JNE	tail6m

tail6u:
	TERM(next6u)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)

next6u:
	NEXT
	JNZ	tail6u
	JMP	tailstore

tail6m:
	TERM(next6m)
	MASKACC(192)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)

next6m:
	NEXT
	JNZ	tail6m
	JMP	tailstore

tail7:
	TESTQ	R8, R8
	JNE	tail7m

tail7u:
	TERM(next7u)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)
	ACC(192, Y6, Y12)

next7u:
	NEXT
	JNZ	tail7u
	JMP	tailstore

tail7m:
	TERM(next7m)
	MASKACC(224)
	ACC(0, Y0, Y10)
	ACC(32, Y1, Y11)
	ACC(64, Y2, Y12)
	ACC(96, Y3, Y14)
	ACC(128, Y4, Y10)
	ACC(160, Y5, Y11)
	ACC(192, Y6, Y12)

next7m:
	NEXT
	JNZ	tail7m

tailstore:
	TESTQ	R8, R8
	JE	storefull
	MOVQ	BX, R13
	SHLQ	$5, R13
	ADDQ	DI, R13
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
