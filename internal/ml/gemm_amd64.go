//go:build amd64 && !purego

package ml

// haveGemm8 gates the assembly GEMM microkernels (this file's
// declarations). They vectorize over LANES, not over k: each lane keeps
// its own accumulator that sums w[k]*x[k] in ascending-k order with
// separate multiply and add instructions (MULPD/VMULPD then
// ADDPD/VADDPD, never FMA), so every output element is bitwise identical
// to the scalar Dot kernel. gemm8 needs only SSE2 (baseline amd64);
// gemm16 and rowsAcc need AVX2 and must only be called when the probe in
// cpu_amd64.go reports cpuHasAVX2 (dispatch enforces this).
const haveGemm8 = true

// gemm8 computes, for 8 lanes and `rows` consecutive weight rows,
//
//	out[lane*outStrideB/8 + r] = Σ_k w[r*k8 + k] * xt[k*strideB/8 + lane]
//
// w points at the first weight row (rows × k, row-major, contiguous).
// xt points at a k-major tile: element (k, lane) at byte offset
// k*strideB + lane*8; the tile must hold 8 lanes (strideB >= 64).
// out points at (lane 0, row 0); lanes advance by outStrideB bytes and
// rows by 8 bytes. k must be >= 1 and rows >= 1.
//
//go:noescape
func gemm8(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int)

// gemm16 is the AVX2 member of the family: the same contract as gemm8
// but over a 16-lane k-major tile (element (k, lane) at byte offset
// k*strideB + lane*8, strideB >= 128) with two-row blocking — 8 YMM
// accumulators stay live across the k loop. Still VMULPD then VADDPD
// per term, one accumulator component per lane: bitwise equal to Dot.
//
//go:noescape
func gemm16(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int)

// sigmoid4 writes σ(src[i]) into dst[i] for 4 lanes, cloning the
// repo's scalar Sigmoid over math.Exp's AVX+FMA variant instruction for
// instruction (gates_amd64.s). The returned mask has bit i set when
// lane i stayed on exp's fast path (|x| within the normal-scale range);
// lanes with unset bits hold the ORIGINAL input value in dst, and the
// caller must recompute them in place with the scalar Sigmoid. Requires
// AVX2+FMA (dispatch gates on wideGates). dst and src may be the same
// slice but must not partially overlap.
//
//go:noescape
func sigmoid4(dst, src *float64) (ok uint8)

// tanh4 writes math.Tanh(src[i]) into dst[i] for 4 lanes, cloning the
// Cephes tanh (math/tanh.go) with all three branches blended by mask —
// total over all inputs, no fallback needed. Requires AVX2+FMA.
//
//go:noescape
func tanh4(dst, src *float64)

// rowsAcc is the AVX2 row kernel (rowkernel.go), the family's one
// accumulation kernel: for i in [0, rows) it
// computes
//
//	out[i] += Σ_j col[idx[j]*strideB/8 + i] * x[idx[j]]
//
// over j in [0, nnz) in ascending order, one VMULPD then one VADDPD per
// term — the Dot chain for every row, continued from out's values. col
// points at the first row of a k-major packed matrix whose columns are
// strideB bytes apart. Rows go 16 at a time in four YMM accumulators,
// then 4, then 1. Requires AVX2 (dispatch gates on avx2).
//
//go:noescape
func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int)
