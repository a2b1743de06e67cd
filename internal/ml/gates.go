package ml

import "math"

// Slice wrappers around the 4-wide gate kernels. When wide is false (or
// for ragged tails) they are exactly the scalar loops the call sites
// used before dispatch existed, so every kernel family computes the
// same bits.

// sigmoidLanes writes sigmoid(src[i]) into dst[i]. dst and src may be
// the same slice but must not partially overlap. The wide path asks
// sigmoid4 for 4 lanes at a time; lanes the kernel flags as off exp's
// fast path still hold their original input in dst and are recomputed
// with the scalar sigmoid in place.
func sigmoidLanes(dst, src []float64, wide bool) {
	n := len(src)
	i := 0
	if wide {
		for ; i+4 <= n; i += 4 {
			if ok := sigmoid4(&dst[i], &src[i]); ok != 0x0F {
				for j := 0; j < 4; j++ {
					if ok&(1<<j) == 0 {
						dst[i+j] = sigmoid(dst[i+j])
					}
				}
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = sigmoid(src[i])
	}
}

// tanhLanes writes math.Tanh(src[i]) into dst[i]. Same aliasing rules
// as sigmoidLanes; tanh4 is total, so the wide path has no fallback.
func tanhLanes(dst, src []float64, wide bool) {
	n := len(src)
	i := 0
	if wide {
		for ; i+4 <= n; i += 4 {
			tanh4(&dst[i], &src[i])
		}
	}
	for ; i < n; i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// wideGatesMatchScalar bit-compares the wide gate kernels against the
// scalar sigmoid/math.Tanh on probe values spanning every branch of
// both functions: ±0 (sign preservation), denormals, the tanh
// polynomial/exp-branch boundary at |x| = 0.625, the tanh saturation
// boundary at 0.5*MAXLOG, exp's overflow cutoff near 709.78, and
// non-finite inputs. The wide kernels clone math.Exp's AVX+FMA variant,
// so this returns false — and dispatch keeps scalar gates — whenever
// the runtime's math package takes a different path (no FMA, GODEBUG
// cpu.fma=off, or a future Go changing the algorithm). Only called when
// the CPU probe reports AVX2 and FMA.
func wideGatesMatchScalar() bool {
	probes := []float64{
		0, math.Copysign(0, -1), 1e-320, -1e-320, 1e-8, -1e-8,
		0.5, -0.5, 0.624, -0.624, 0.625, -0.625, 1, -1, 2.5, -2.5,
		19.0625, -19.0625, 44.014, -44.014, 44.015, -44.015,
		88.02, -88.02, 700, -700, 709.7, -709.7, 710, -710,
		1e300, -1e300, math.Inf(1), math.Inf(-1), 0.75, -0.75,
	}
	got := make([]float64, len(probes))
	sigmoidLanes(got, probes, true)
	for i, x := range probes {
		if math.Float64bits(got[i]) != math.Float64bits(sigmoid(x)) {
			return false
		}
	}
	tanhLanes(got, probes, true)
	for i, x := range probes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}
