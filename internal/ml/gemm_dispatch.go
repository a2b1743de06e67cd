package ml

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"mimicnet/internal/obs"
)

// Runtime GEMM kernel dispatch (DESIGN.md decision 11). Three kernel
// families share the hot paths:
//
//	scalar — the portable Go loops (also the only family under the
//	         purego build tag or off amd64)
//	sse2   — 8-lane k-major tiles through gemm8 (baseline amd64)
//	avx2   — 16-lane tiles through gemm16 for the trainer's dense
//	         forward product, the rowsAcc row kernel for every other
//	         product (inference, the trainer's backward products and
//	         sparse forward branch), and (on FMA hardware) the 4-wide
//	         sigmoid/tanh gate kernels
//
// Every family produces bitwise-identical results: each output element
// is the same ascending-k multiply-then-add chain as the scalar Dot, and
// the wide gate kernels clone math.Exp/math.Tanh instruction for
// instruction (gates_amd64.s), verified at init by wideGatesMatchScalar.
// Selection happens once at process start — CPUID probe plus the
// MIMICNET_GEMM override — and is published through one atomic pointer;
// kernels load it once per call, never per element.

// gemmImpl describes one selectable kernel family.
type gemmImpl struct {
	name string
	// tileLanes is the widest k-major tile the family consumes per
	// microkernel call: 16 (gemm16 + gemm8 remainder), 8 (gemm8), or 0
	// (pure-Go lane loops only).
	tileLanes int
	// avx2 routes the row kernel (rowkernel.go) — inference, MulLanesT,
	// AddGradLanes and MulLanes' sparse branch — through rowsAcc;
	// otherwise it runs as a Go loop.
	avx2 bool
	// wideGates routes Sigmoid/Tanh gate passes through the 4-wide
	// AVX2+FMA clones of math.Exp's FMA variant and math.Tanh.
	wideGates bool
}

var gemmActive atomic.Pointer[gemmImpl]

// gemmKernel returns the live kernel descriptor (one atomic load; the
// only per-call dispatch cost on the hot path).
func gemmKernel() *gemmImpl { return gemmActive.Load() }

// gemmKernelNames is every name SetGemmKernel understands on any build,
// widest last.
var gemmKernelNames = []string{"scalar", "sse2", "avx2"}

// gemmImplByName holds the families usable on this CPU and build,
// assembled once at package init from the cached CPUID probe.
var gemmImplByName = buildGemmImpls()

func buildGemmImpls() map[string]*gemmImpl {
	m := map[string]*gemmImpl{"scalar": {name: "scalar"}}
	if haveGemm8 {
		m["sse2"] = &gemmImpl{name: "sse2", tileLanes: 8}
		if cpuHasAVX2 {
			m["avx2"] = &gemmImpl{
				name:      "avx2",
				tileLanes: 16,
				avx2:      true,
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
	}
	return m
}

func init() {
	def := "scalar"
	if _, ok := gemmImplByName["sse2"]; ok {
		def = "sse2"
	}
	if _, ok := gemmImplByName["avx2"]; ok {
		def = "avx2"
	}
	if env := os.Getenv("MIMICNET_GEMM"); env != "" {
		if err := SetGemmKernel(env); err != nil {
			// A misspelled or unavailable override must fail loudly at
			// start, not silently run a different kernel.
			panic("ml: " + err.Error())
		}
	} else if err := SetGemmKernel(def); err != nil {
		panic("ml: " + err.Error())
	}
	registerGemmKernelGauges()
}

// SetGemmKernel selects the GEMM kernel family by name ("scalar",
// "sse2", or "avx2"). It validates availability on this CPU and build
// and returns a descriptive error otherwise. All families are bitwise
// identical, so switching never changes results — only throughput.
// Intended for process start (MIMICNET_GEMM) and for tests/benchmarks;
// safe to call concurrently with running kernels (in-flight calls finish
// on the kernel they loaded).
func SetGemmKernel(name string) error {
	if impl, ok := gemmImplByName[name]; ok {
		gemmActive.Store(impl)
		return nil
	}
	avail := strings.Join(GemmKernels(), ", ")
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

// GemmWideGates reports whether the live kernel runs the 4-wide
// sigmoid/tanh gate kernels (avx2 on FMA hardware).
func GemmWideGates() bool { return gemmKernel().wideGates }

// GemmKernels returns the kernel names available on this CPU and build,
// narrowest first.
func GemmKernels() []string {
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
