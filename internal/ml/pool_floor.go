//go:build !poolfloor0

package ml

// dispatchFloor is the least estimated work, in multiply-add equivalents,
// a chunk must carry before Range hands it to another goroutine. It is
// the break-even BenchmarkPoolBreakEven measured: forced fan-out starts
// to beat running on the caller at about 1 Mi multiply-adds per chunk
// for a training step and 2–4 Mi for an inference step, and the constant
// is the geometric mean of the two rounded up to a power of two
// (DESIGN.md decision 15 has the table and the host). Below it a
// wake-up, a channel hop and a WaitGroup cost more than the second core
// returns. The shapes this repo trains and serves by default (hidden <=
// 24, <= 32 lanes; largest GEMM 96×31×24 ≈ 71 K multiply-adds) sit far
// under it and run on the caller; a hidden-128 × 64-lane recurrent GEMM
// (4 Mi) is two floors and still fans out.
const dispatchFloor = 1 << 21
