//go:build amd64 && !purego

package ml

// Runtime CPU feature probe for kernel selection. The probe runs
// exactly once, during package variable initialization, and sets the
// two kernel flags in gemm_dispatch.go; the hot path reads those flags,
// never CPUID results.

// cpuid executes CPUID with the given leaf/subleaf (see cpu_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled extended-state mask.
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports AVX2 usable on this CPU *and* enabled by the OS
// (XMM+YMM state saved on context switch). cpuHasFMA additionally
// requires FMA3 — the wide gate kernels clone math.Exp's FMA variant,
// which the runtime only takes on AVX+FMA hardware.
var cpuHasAVX2, cpuHasFMA = probeCPU()

func probeCPU() (avx2, fma bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	// XCR0 bits 1|2: the OS saves XMM and YMM state across context
	// switches. Without them AVX registers are not usable.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&(1<<5) != 0
	fma = avx2 && ecx1&fmaBit != 0
	return avx2, fma
}
