package ml

import (
	"fmt"
	"math"
	"testing"

	"mimicnet/internal/stats"
)

// trainPassSentinel fills the slots past every operand the trainer's
// elementwise passes write; a pass must leave it as it is.
var trainPassSentinel = math.Float64frombits(0x7ff8_dead_beef_0002)

// trainPassGuard is how many sentinel slots follow each written operand:
// one whole 4-lane group.
const trainPassGuard = 4

// trainPassSpecials are the operands the bitwise checks mix in: signed
// zeros, subnormals, values near overflow, infinities and NaN.
var trainPassSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1e-310,
	math.MaxFloat64, -1.7e308, 1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// trainPassOperand returns n values drawn by draw followed by
// trainPassGuard sentinels; the operand is the first n.
func trainPassOperand(n int, draw func() float64) []float64 {
	v := make([]float64, n+trainPassGuard)
	for i := range v {
		v[i] = trainPassSentinel
		if i < n {
			v[i] = draw()
		}
	}
	return v
}

// sameBits reports whether got and want carry the same bits, or are
// both NaN: which operand's payload a NaN result carries depends on
// the operand order the compiler picks for the Go loop.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// checkTrainSlices requires got to equal want element for element over
// the first n values (sameBits) and the guard past them to hold the
// sentinel, bit for bit.
func checkTrainSlices(t testing.TB, what string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if i < n && !sameBits(got[i], want[i]) {
			t.Fatalf("%s width %d elem %d: %v (%#x), want %v (%#x)",
				what, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		if i >= n && math.Float64bits(got[i]) != math.Float64bits(trainPassSentinel) {
			t.Fatalf("%s width %d: wrote %#x %d slots past its end", what, n, math.Float64bits(got[i]), i-n+1)
		}
	}
}

// clone copies v.
func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// checkTrainPasses compares the trainer's elementwise passes, as each
// kernel setting (kernelConfigs) runs them, with their Go loops (the
// setting with every kernel off) at width n: lstmGateGradLanes with and
// without dhIn, addBiasGradLanes over 1-5 lanes, and adamLanes over five
// steps, with data, moments and gradient compared after each. Operands
// come from draw; every output is followed by sentinels that must
// survive.
func checkTrainPasses(t testing.TB, n int, draw func() float64, s *stats.Stream) {
	t.Helper()
	H := n
	z := trainPassOperand(4*H, draw)
	dh, dhIn, dc := trainPassOperand(H, draw), trainPassOperand(H, draw), trainPassOperand(H, draw)
	ctc, cPrev := trainPassOperand(H, draw), trainPassOperand(H, draw)

	lanes := 1 + s.Intn(5)
	dys := make([]float64, lanes*n)
	for i := range dys {
		dys[i] = draw()
	}
	biasGrad := trainPassOperand(n, draw)
	wantBias := clone(biasGrad)
	for a := 0; a < lanes; a++ {
		for r := 0; r < n; r++ {
			wantBias[r] += dys[a*n+r]
		}
	}

	data, m, v := trainPassOperand(n, draw), trainPassOperand(n, draw), trainPassOperand(n, draw)
	grads := make([][]float64, 5)
	for i := range grads {
		grads[i] = trainPassOperand(n, draw)
	}
	opt := newAdam(1e-3 * (1 + s.Float64()))

	// gateGrads runs lstmGateGradLanes under the live flags, without and
	// with dhIn, and returns each run's z and dc.
	gateGrads := func() (zs, dcs [2][]float64) {
		for i, in := range [][]float64{nil, dhIn[:H]} {
			zs[i], dcs[i] = clone(z), clone(dc)
			lstmGateGradLanes(zs[i][:4*H], dh[:H], in, dcs[i][:H], ctc[:H], cPrev[:H])
		}
		return zs, dcs
	}
	// adamSteps runs the five adamLanes steps under the live flags and
	// returns data, m, v and the gradient after each.
	adamSteps := func() (out [][4][]float64) {
		d, m, v := clone(data), clone(m), clone(v)
		for step, g := range grads {
			opt.t = step + 1
			k := opt.coef()
			g = clone(g)
			adamLanes(d[:n], g[:n], m[:n], v[:n], &k)
			out = append(out, [4][]float64{clone(d), clone(m), clone(v), g})
		}
		return out
	}
	setKernels(t, kernelConfig{})
	wantZ, wantDC := gateGrads()
	wantAdam := adamSteps()

	for _, kn := range kernelConfigs() {
		setKernels(t, kn)
		gotZ, gotDC := gateGrads()
		for i := range gotZ {
			what := kn.String() + " lstmGateGradLanes"
			if i == 1 {
				what += " with dhIn"
			}
			checkTrainSlices(t, what+" z", 4*H, gotZ[i], wantZ[i])
			checkTrainSlices(t, what+" dc", H, gotDC[i], wantDC[i])
		}

		got := &Matrix{Rows: n, Cols: 1, Grad: clone(biasGrad)}
		addBiasGradLanes(got, dys, lanes)
		checkTrainSlices(t, kn.String()+" addBiasGradLanes", n, got.Grad, wantBias)

		for step, gotStep := range adamSteps() {
			what := fmt.Sprintf("%s adamLanes step %d", kn, step+1)
			for j, name := range []string{"data", "m", "v", "grad"} {
				checkTrainSlices(t, what+" "+name, n, gotStep[j], wantAdam[step][j])
			}
		}
	}
}

// trainPassDraw draws ordinary values of either sign in [-2, 2) and,
// with probability special, a trainPassSpecials entry.
func trainPassDraw(s *stats.Stream, special float64) func() float64 {
	return func() float64 {
		if s.Float64() < special {
			return trainPassSpecials[s.Intn(len(trainPassSpecials))]
		}
		return 4*s.Float64() - 2
	}
}

// TestTrainPassesMatchGo runs checkTrainPasses at every width from 1 to
// 40 — each 4-lane group count and ragged tail — on ordinary operands
// and on operands of which a quarter are specials.
func TestTrainPassesMatchGo(t *testing.T) {
	s := stats.NewStream(41)
	for n := 1; n <= 40; n++ {
		for _, special := range []float64{0, 0.25} {
			checkTrainPasses(t, n, trainPassDraw(s, special), s)
		}
	}
}

// FuzzTrainPasses runs checkTrainPasses at a fuzzed width of 1-40 with
// the four fuzzed values cycled into the operands between draws from
// the seed, so the fuzzer's specials (±0, subnormals, ±Inf, NaN,
// near-overflow) reach every operand position.
func FuzzTrainPasses(f *testing.F) {
	f.Add(0.0, math.Copysign(0, -1), 0.5, -0.25, uint8(7), int64(1))
	f.Add(math.Inf(1), math.NaN(), 5e-324, 1.7e308, uint8(24), int64(2))
	f.Add(1.0, -1.0, 1e-310, math.Inf(-1), uint8(39), int64(3))
	f.Fuzz(func(t *testing.T, a, b, c, d float64, n8 uint8, seed int64) {
		vals := [4]float64{a, b, c, d}
		s := stats.NewStream(seed)
		i := 0
		draw := func() float64 {
			i++
			if i%3 == 0 {
				return vals[(i/3)%4]
			}
			return 4*s.Float64() - 2
		}
		checkTrainPasses(t, 1+int(n8)%40, draw, s)
	})
}

// TestNonFiniteWeightStaysNonFinite pins the invariant behind the
// trainer's zero-skipping products and core's refusal of diverged
// models: once a weight is +Inf, -Inf or NaN, no gradient — finite,
// zero, infinite or NaN — through clipGrads and an Adam step makes it
// finite again (Inf minus a finite update is Inf; minus a non-finite one
// Inf or NaN; NaN stays NaN), under every kernel setting. So a model
// that ever holds a non-finite weight ends training with one, and
// CheckFinite (which core.TrainModels applies) refuses it; a whole
// training run from such a weight ends that way too.
func TestNonFiniteWeightStaysNonFinite(t *testing.T) {
	grads := []float64{0, math.Copysign(0, -1), 1e-3, -5, 1e308, -1e308,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, kn := range kernelConfigs() {
		setKernels(t, kn)
		s := stats.NewStream(5)
		for _, w0 := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			// Seven elements, so the wide Adam pass and its Go tail both
			// carry a non-finite weight; a finite matrix beside it shares
			// the clipping norm.
			w := newMatrix(7, 1)
			for i := range w.Data {
				w.Data[i] = w0
			}
			other := newMatrix(5, 1)
			params := []*Matrix{w, other}
			opt := newAdam(1e-3)
			for step := 0; step < 200; step++ {
				for _, p := range params {
					for i := range p.Grad {
						p.Grad[i] = grads[s.Intn(len(grads))]
					}
				}
				if step%2 == 0 {
					clipGrads(params, 1)
				}
				opt.Step(params)
				for i, v := range w.Data {
					if !math.IsNaN(v) && !math.IsInf(v, 0) {
						t.Fatalf("%s: weight %d from %v became finite (%v) at step %d", kn, i, w0, v, step)
					}
				}
			}
		}

		cfg := DefaultModelConfig(6, 4)
		cfg.Epochs = 1
		cfg.BatchSize = 4
		model, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		model.Trunk[0].(*lstm).Wh.Data[3] = math.Inf(1)
		model.Train(samplesOf(synthSamples(16, cfg.Features, cfg.Window, 9)))
		if err := model.CheckFinite(); err == nil {
			t.Fatalf("%s: training from an Inf weight left a finite model", kn)
		}
	}
}
