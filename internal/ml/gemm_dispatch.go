package ml

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"mimicnet/internal/obs"
)

// Runtime GEMM kernel dispatch (DESIGN.md decisions 11 and 20). Two
// kernel families share the hot paths:
//
//	scalar — the portable Go loops (also the only family under the
//	         purego build tag, off amd64, or on a CPU without AVX2)
//	avx2   — the rowsAcc row kernel for every matrix product (inference
//	         and all of the trainer's), and (on FMA hardware) the 4-wide
//	         sigmoid/tanh gate kernels
//
// Both produce bitwise-identical results: each output element is the
// same ascending-k multiply-then-add chain as the scalar dot, and the
// wide gate kernels clone math.Exp/math.Tanh instruction for instruction
// (gates_amd64.s), verified at init by wideGatesMatchScalar. Selection
// happens once at process start — CPUID probe plus the MIMICNET_GEMM
// override — and is published through one atomic pointer; kernels load
// it once per call, never per element.

// gemmImpl describes one selectable kernel family.
type gemmImpl struct {
	name string
	// avx2 routes the row kernel (rowkernel.go) through rowsAcc;
	// otherwise it runs as a Go loop.
	avx2 bool
	// wideGates routes sigmoid/Tanh gate passes through the 4-wide
	// AVX2+FMA clones of math.Exp's FMA variant and math.Tanh.
	wideGates bool
}

var gemmActive atomic.Pointer[gemmImpl]

// gemmKernel returns the live kernel descriptor (one atomic load; the
// only per-call dispatch cost on the hot path).
func gemmKernel() *gemmImpl { return gemmActive.Load() }

// gemmKernelNames is every name setGemmKernel understands on any build,
// widest last.
var gemmKernelNames = []string{"scalar", "avx2"}

// gemmImplByName holds the families usable on this CPU and build,
// assembled once at package init from the cached CPUID probe.
var gemmImplByName = buildGemmImpls()

func buildGemmImpls() map[string]*gemmImpl {
	m := map[string]*gemmImpl{"scalar": {name: "scalar"}}
	if cpuHasAVX2 {
		m["avx2"] = &gemmImpl{
			name: "avx2",
			avx2: true,
			// The gate kernels replicate math.Exp's AVX+FMA variant,
			// so they are only bitwise-correct when the runtime's
			// math package takes that same path. Verify empirically
			// rather than re-deriving internal/cpu's decision (which
			// GODEBUG can override): if any probe value disagrees
			// with the scalar transcendentals, fall back to scalar
			// gates and keep determinism.
			wideGates: cpuHasFMA && wideGatesMatchScalar(),
		}
	}
	return m
}

func init() {
	def := "scalar"
	if _, ok := gemmImplByName["avx2"]; ok {
		def = "avx2"
	}
	if env := os.Getenv("MIMICNET_GEMM"); env != "" {
		if err := setGemmKernel(env); err != nil {
			// A misspelled or unavailable override must fail loudly at
			// start, not silently run a different kernel.
			panic("ml: " + err.Error())
		}
	} else if err := setGemmKernel(def); err != nil {
		panic("ml: " + err.Error())
	}
	registerGemmKernelGauges()
}

// setGemmKernel selects the GEMM kernel family by name ("scalar" or
// "avx2"). It validates availability on this CPU and build and returns
// a descriptive error otherwise. All families are bitwise
// identical, so switching never changes results — only throughput.
// Intended for process start (MIMICNET_GEMM) and for tests/benchmarks;
// safe to call concurrently with running kernels (in-flight calls finish
// on the kernel they loaded).
func setGemmKernel(name string) error {
	if impl, ok := gemmImplByName[name]; ok {
		gemmActive.Store(impl)
		return nil
	}
	avail := strings.Join(gemmKernels(), ", ")
	for _, k := range gemmKernelNames {
		if k == name {
			return fmt.Errorf("MIMICNET_GEMM=%q: kernel not available on this CPU/build (available: %s)", name, avail)
		}
	}
	return fmt.Errorf("MIMICNET_GEMM=%q: unknown GEMM kernel (supported values: %s; available here: %s)",
		name, strings.Join(gemmKernelNames, ", "), avail)
}

// GemmKernelName returns the live kernel family name.
func GemmKernelName() string { return gemmKernel().name }

// gemmKernels returns the kernel names available on this CPU and build,
// narrowest first.
func gemmKernels() []string {
	out := make([]string, 0, len(gemmImplByName))
	for _, k := range gemmKernelNames {
		if _, ok := gemmImplByName[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

// registerGemmKernelGauges exposes the selection as an info gauge: one
// series per known family, 1 on the live one. Scrape-time only.
func registerGemmKernelGauges() {
	for _, k := range gemmKernelNames {
		name := k
		obs.Default().GaugeFunc(
			fmt.Sprintf("mimicnet_ml_gemm_kernel{kernel=%q}", name),
			"Selected GEMM kernel family (1 = live; override with MIMICNET_GEMM).",
			func() float64 {
				if GemmKernelName() == name {
					return 1
				}
				return 0
			})
	}
}
