package ml

import (
	"fmt"

	"mimicnet/internal/obs"
)

// Kernel selection (DESIGN.md decisions 11 and 20). The CPU probe makes
// the choice once, at package init, into two flags:
//
//	useRowsAcc   — the row kernel (rowsAcc, rowsAccStrided) for every
//	               matrix product (inference and all of the trainer's);
//	               otherwise the Go loops in accCols and accStrided. On
//	               with AVX2.
//	useWideGates — the wide sigmoid/tanh kernels, the LSTM's
//	               elementwise passes and the trainer's gate-gradient,
//	               bias-gradient and Adam passes, one assembly loop per
//	               slice; otherwise their Go loops. On with AVX2+FMA
//	               when wideGatesMatchScalar agrees.
//
// Every combination produces bitwise-identical results: each output
// element is the same ascending-k multiply-then-add chain as the scalar
// dot, and the wide gate kernels clone math.Exp/math.Tanh instruction
// for instruction (gates_amd64.s). Without the assembly (purego, other
// architectures, a CPU without AVX2) both flags are off. Kernels read a
// flag once per call, never per element; only tests change them.
var (
	useRowsAcc = cpuHasAVX2
	// The gate kernels replicate math.Exp's AVX+FMA variant, so they are
	// only bitwise-correct when the runtime's math package takes that
	// same path. The check is empirical rather than a re-derivation of
	// internal/cpu's decision (which GODEBUG can override).
	useWideGates = cpuHasFMA && wideGatesMatchScalar()
)

// GemmKernelName names the live kernel family: "avx2" when the row
// kernel runs rowsAcc, "scalar" otherwise.
func GemmKernelName() string {
	if useRowsAcc {
		return "avx2"
	}
	return "scalar"
}

// The info gauge: one series, for the family the probe chose.
func init() {
	obs.Default().GaugeFunc(
		fmt.Sprintf("mimicnet_ml_gemm_kernel{kernel=%q}", GemmKernelName()),
		"GEMM kernel family the CPU probe selected (always 1; the label names it).",
		func() float64 { return 1 })
}
