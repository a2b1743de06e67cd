//go:build amd64 && !purego

package ml

// The AVX2 kernels (gemm_avx2_amd64.s, gates_amd64.s): the row kernel
// behind batched inference and every minibatch-trainer product, and the
// 4-wide gate activations. Each is called only when the probe in
// cpu_amd64.go reports AVX2 (and FMA for the gates); dispatch
// (gemm_dispatch.go) enforces this.

// sigmoid4 writes σ(src[i]) into dst[i] for 4 lanes, cloning the
// repo's scalar sigmoid over math.Exp's AVX+FMA variant instruction for
// instruction (gates_amd64.s). The returned mask has bit i set when
// lane i stayed on exp's fast path (|x| within the normal-scale range);
// lanes with unset bits hold the ORIGINAL input value in dst, and the
// caller must recompute them in place with the scalar sigmoid. Requires
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
// accumulation kernel: for i in [0, rows) it computes
//
//	out[i] += Σ_j col[idx[j]*strideB/8 + i] * x[idx[j]]
//
// over j in [0, nnz) in ascending order, one VMULPD then one VADDPD per
// term — never FMA — so each row is the dot chain, continued from out's
// values, bit for bit. col points at the first row of a k-major packed
// matrix whose columns are strideB bytes apart. Rows go 16 at a time in
// four YMM accumulators, then 4, then 1. Requires AVX2 (dispatch gates
// on avx2).
//
//go:noescape
func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int)
