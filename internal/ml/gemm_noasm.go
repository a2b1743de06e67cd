//go:build !amd64 || purego

package ml

// haveGemm8 is false without the assembly microkernels; the dispatch
// table offers only the "scalar" family, MulLanes' dense branch uses the
// portable 4-lane Go kernel and the row kernel its Go loop, which
// produce identical results.
const haveGemm8 = false

// The CPUID probe compiles out with the kernels.
const (
	cpuHasAVX2 = false
	cpuHasFMA  = false
)

// The stubs below are unreachable when haveGemm8 is false: dispatch
// never constructs a family that calls them.

func gemm8(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int) {
	panic("ml: gemm8 called without assembly support")
}

func gemm16(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int) {
	panic("ml: gemm16 called without assembly support")
}

func sigmoid4(dst, src *float64) (ok uint8) {
	panic("ml: sigmoid4 called without assembly support")
}

func tanh4(dst, src *float64) {
	panic("ml: tanh4 called without assembly support")
}

func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int) {
	panic("ml: rowsAcc called without assembly support")
}
