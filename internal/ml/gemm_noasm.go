//go:build !amd64 || purego

package ml

// Without the assembly kernels the probe compiles out, the dispatch table
// offers only the "scalar" family, and the row kernel and the gates run
// their Go loops, which produce identical results.
const (
	cpuHasAVX2 = false
	cpuHasFMA  = false
)

// The stubs below are unreachable: dispatch never constructs a family
// that calls them.

func sigmoid4(dst, src *float64) (ok uint8) {
	panic("ml: sigmoid4 called without assembly support")
}

func tanh4(dst, src *float64) {
	panic("ml: tanh4 called without assembly support")
}

func rowsAcc(out *float64, rows int, col *float64, strideB int, x *float64, idx *int, nnz int) {
	panic("ml: rowsAcc called without assembly support")
}
