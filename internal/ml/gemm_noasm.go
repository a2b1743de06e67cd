//go:build !amd64 || purego

package ml

// Without the assembly kernels the probe compiles out, both kernel flags
// (gemm_dispatch.go) are off, and the row kernel and the gates run their
// Go loops, which produce identical results.
const (
	cpuHasAVX2 = false
	cpuHasFMA  = false
)

// The stubs below are unreachable: with both flags off nothing calls
// them.

func sigmoidWide(dst, src *float64, n int) (done int) {
	panic("ml: sigmoidWide called without assembly support")
}

func tanhWide(dst, src *float64, n int) {
	panic("ml: tanhWide called without assembly support")
}

func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int) {
	panic("ml: rowsAcc called without assembly support")
}

func addSumWide(dst, a, b *float64, n int) {
	panic("ml: addSumWide called without assembly support")
}

func cellWide(c, f, in, cand *float64, n int) {
	panic("ml: cellWide called without assembly support")
}

func prodWide(dst, a, b *float64, n int) {
	panic("ml: prodWide called without assembly support")
}
