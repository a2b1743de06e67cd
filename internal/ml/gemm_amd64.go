//go:build amd64 && !purego

package ml

// The AVX2 kernels (gemm_avx2_amd64.s, gates_amd64.s): the row kernel
// behind batched inference and every minibatch-trainer product, and the
// gate activations, which run a whole slice 4 lanes at a time in one
// assembly loop (one call per gate pass, not per group). Each is called
// only when the probe in cpu_amd64.go reports AVX2 (and FMA for the
// gates); dispatch (gemm_dispatch.go) enforces this.

// sigmoidWide writes σ(src[i]) into dst[i] for i in [0, done), 4 lanes
// at a time in one loop, cloning the repo's scalar sigmoid over
// math.Exp's AVX+FMA variant instruction for instruction
// (gates_amd64.s). It walks the whole 4-lane groups of n and stops at
// the first group with a lane off exp's fast path (|x| beyond the
// normal-scale range, NaN), which it leaves unwritten: done is that
// group's start, or n rounded down to a multiple of 4. The caller
// computes that group in scalar and resumes after it. Requires
// AVX2+FMA (dispatch gates on wideGates). dst and src may be the same
// slice but must not partially overlap.
//
//go:noescape
func sigmoidWide(dst, src *float64, n int) (done int)

// tanhWide writes math.Tanh(src[i]) into dst[i] for the whole 4-lane
// groups of n in one loop, cloning the Cephes tanh (math/tanh.go): each
// group evaluates the branches its lanes take and blends them by mask.
// Total over all inputs, no fallback needed. Requires AVX2+FMA. Same
// aliasing rule as sigmoidWide.
//
//go:noescape
func tanhWide(dst, src *float64, n int)

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

// addSumWide, cellWide and prodWide are the LSTM's elementwise passes
// over the whole 4-lane groups of n (gemm_avx2_amd64.s; the caller does
// the tail): dst[i] += a[i] + b[i]; c[i] = f[i]*c[i] + in[i]*cand[i];
// dst[i] = a[i]*b[i]. Each element is the Go expression's operations
// in order, unfused, so the results are the scalar loop's bits. They
// need only AVX; their callers run them under the gates' wideGates
// flag, beside the gate kernels. dst may alias an input elementwise.
//
//go:noescape
func addSumWide(dst, a, b *float64, n int)

//go:noescape
func cellWide(c, f, in, cand *float64, n int)

//go:noescape
func prodWide(dst, a, b *float64, n int)
