package ml

import "math"

// Slice wrappers around the wide gate kernels. When wide is false (or
// for ragged tails) they are exactly the scalar loops the call sites
// used before dispatch existed, so every kernel family computes the
// same bits. With wide, one kernel call covers every whole 4-lane group
// of the slice (DESIGN.md decision 35): a Go call per group cost about
// as much as the group's arithmetic and kept one group's exp chain from
// overlapping the next.

// sigmoidLanes writes sigmoid(src[i]) into dst[i]. dst and src may be
// the same slice but must not partially overlap. The wide kernel stops
// at the first group with a lane off exp's fast path and leaves it
// unwritten; that group is computed with the scalar sigmoid, and the
// kernel resumes after it.
func sigmoidLanes(dst, src []float64, wide bool) {
	n := len(src)
	dst = dst[:n]
	i := 0
	if wide {
		for i+4 <= n {
			i += sigmoidWide(&dst[i], &src[i], n-i)
			if i+4 <= n {
				for j := i; j < i+4; j++ {
					dst[j] = sigmoid(src[j])
				}
				i += 4
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = sigmoid(src[i])
	}
}

// tanhLanes writes math.Tanh(src[i]) into dst[i]. Same aliasing rules
// as sigmoidLanes; tanhWide is total, so the wide path has no fallback.
func tanhLanes(dst, src []float64, wide bool) {
	n := len(src)
	dst = dst[:n]
	i := 0
	if wide && n >= 4 {
		tanhWide(&dst[0], &src[0], n)
		i = n &^ 3
	}
	for ; i < n; i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// The LSTM's elementwise passes around its gates, for the lane banks
// and the trainer alike. Each writes the scalar expression's bits; with
// wide, the whole 4-lane groups run in one assembly loop (addSumWide,
// cellWide, prodWide: plain AVX, no FMA) and Go does the tail. Every
// input is at least len(dst) long, and dst may alias an input only
// element for element.

// addSumLanes sets dst[i] += a[i] + b[i], that association: the
// pre-activation z += zh + B.
func addSumLanes(dst, a, b []float64, wide bool) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	if wide && n >= 4 {
		addSumWide(&dst[0], &a[0], &b[0], n)
		i = n &^ 3
	}
	for ; i < n; i++ {
		dst[i] += a[i] + b[i]
	}
}

// cellLanes sets c[i] = f[i]*c[i] + in[i]*g[i]: the cell update
// cNew = f·cPrev + i·g.
func cellLanes(c, f, in, g []float64, wide bool) {
	n := len(c)
	f, in, g = f[:n], in[:n], g[:n]
	i := 0
	if wide && n >= 4 {
		cellWide(&c[0], &f[0], &in[0], &g[0], n)
		i = n &^ 3
	}
	for ; i < n; i++ {
		c[i] = f[i]*c[i] + in[i]*g[i]
	}
}

// prodLanes sets dst[i] = a[i] * b[i]: the output h = o·tanh(c).
func prodLanes(dst, a, b []float64, wide bool) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	if wide && n >= 4 {
		prodWide(&dst[0], &a[0], &b[0], n)
		i = n &^ 3
	}
	for ; i < n; i++ {
		dst[i] = a[i] * b[i]
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
