//go:build !poolfloor0

package ml

// dispatchFloor is the least estimated work, in multiply-add equivalents,
// a chunk must carry before Range hands it to another goroutine. It is
// the break-even BenchmarkPoolBreakEven measures: forced fan-out starts
// to beat running on the caller at about 512 Ki multiply-adds per chunk
// for an inference step, 1 Mi for a training step and 334 Ki for one
// lane group of a split inference flush, and the constant is the
// geometric mean of the three rounded up to a power of two (DESIGN.md
// decisions 15 and 29 have the tables and the host). Below it a wake-up,
// a channel hop and a WaitGroup cost more than the second core returns.
// The model shapes this repo trains and serves by default (hidden <= 24,
// <= 32 lanes; largest GEMM 96×31×24 ≈ 71 K multiply-adds) sit far under
// it and run on the caller; an inference flush of a 16- or 32-cluster
// composition (about 1.2 or 2.4 Mi per lane group with two groups)
// splits across its groups.
const dispatchFloor = 1 << 20
