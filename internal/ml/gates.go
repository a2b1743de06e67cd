package ml

import "math"

// Slice wrappers around the wide gate kernels. Callers pass
// useWideGates as wide (wideGatesMatchScalar passes true, before the
// flag is set); the trainer's lstmGateGradLanes, which that probe never
// runs, reads the flag itself. When wide is false (or for ragged tails) they are the
// scalar loops, which compute the same bits. With wide, one kernel call covers every whole 4-lane group
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

// lstmGateGradLanes is one lane's LSTM gate-gradient pass (the
// trainer's lstmGateGrads): z holds the lane's i, f, g, o activations
// in four quarters of H = len(dh) and receives their pre-activation
// gradients in place; dh, plus dhIn unless it is nil, is the gradient
// at h = o·tanh(c); dc is the cell carry, updated in place; ctc =
// tanh(c) and cPrev are the step's cached cell states. Element j of
// each quarter is read before it is written. Under useWideGates the
// whole 4-lane groups run in one assembly loop (lstmGateGradsWide).
func lstmGateGradLanes(z, dh, dhIn, dc, ctc, cPrev []float64) {
	H := len(dh)
	z, dc, ctc, cPrev = z[:4*H], dc[:H], ctc[:H], cPrev[:H]
	if dhIn != nil {
		dhIn = dhIn[:H]
	}
	j := 0
	if useWideGates && H >= 4 {
		var in *float64 // nil: no dhIn
		if dhIn != nil {
			in = &dhIn[0]
		}
		lstmGateGradsWide(&z[0], &dh[0], in, &dc[0], &ctc[0], &cPrev[0], H)
		j = H &^ 3
	}
	for ; j < H; j++ {
		dhv := dh[j]
		if dhIn != nil {
			dhv += dhIn[j]
		}
		// h = o·tanh(c), c = f·cPrev + i·g.
		i_, f_, g_, o_, tc := z[j], z[H+j], z[2*H+j], z[3*H+j], ctc[j]
		do := dhv * tc
		dcTotal := dc[j] + dhv*o_*dTanh(tc)
		di := dcTotal * g_
		df := dcTotal * cPrev[j]
		dg := dcTotal * i_
		z[j] = di * dSigmoid(i_)
		z[H+j] = df * dSigmoid(f_)
		z[2*H+j] = dg * dTanh(g_)
		z[3*H+j] = do * dSigmoid(o_)
		dc[j] = dcTotal * f_
	}
}

// wideGatesMatchScalar bit-compares the wide gate kernels against the
// scalar sigmoid/math.Tanh on probe values spanning every branch of
// both functions: ±0 (sign preservation), denormals, the tanh
// polynomial/exp-branch boundary at |x| = 0.625, the tanh saturation
// boundary at 0.5*MAXLOG, exp's overflow cutoff near 709.78, and
// non-finite inputs. The wide kernels clone math.Exp's AVX+FMA variant,
// so this returns false — and useWideGates stays off — whenever
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
