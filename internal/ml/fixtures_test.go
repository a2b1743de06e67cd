package ml

import (
	"testing"

	"mimicnet/internal/stats"
)

// Shared synthetic-data builders for the trainer and layout tests. The
// draw order inside each helper is part of the fixtures' golden
// contract: every seeded test's data derives from it, so changing a
// draw changes what those tests train on.

// The window-of-slices reference layout: one materialized window of row
// slices per sample, the representation the columnar SampleView
// replaced. It stays here as the oracle TestColumnarTrainingBitwiseParity
// trains against, and as the carrier for independent-window fixtures
// (synthSamples) that a single sliding-window matrix cannot express.

// Sample is one training example: a window of packet feature vectors and
// the targets for the window's final packet.
type Sample struct {
	Window  [][]float64
	Latency float64 // normalized to [0,1] by the caller's Discretizer
	Dropped bool
	ECN     bool
}

// trainStep is trainStepWindow over one reference sample (forward +
// backward, gradients accumulated, no optimizer step).
func (m *Model) trainStep(s Sample) float64 {
	return m.trainStepWindow(s.Window, s.Latency, s.Dropped, s.ECN)
}

// windowSource is a SampleSource that also hands out whole windows, the
// form the per-sample reference path consumes. *SampleView and
// samplesSource both implement it.
type windowSource interface {
	SampleSource
	WindowAppend(buf [][]float64, i int) [][]float64
}

// samplesSource adapts the reference []Sample layout to SampleSource. The
// window length is computed once at construction: Steps is consulted
// per batch, and rescanning the slice there would be quadratic.
type samplesSource struct {
	s     []Sample
	steps int
}

// samplesOf wraps reference samples as a SampleSource.
func samplesOf(s []Sample) *samplesSource {
	return &samplesSource{s: s, steps: uniformSteps(s)}
}

func (c *samplesSource) Len() int   { return len(c.s) }
func (c *samplesSource) Steps() int { return c.steps }

func (c *samplesSource) Row(i, st int) []float64 { return c.s[i].Window[st] }

func (c *samplesSource) WindowAppend(buf [][]float64, i int) [][]float64 {
	return append(buf, c.s[i].Window...)
}

func (c *samplesSource) Target(i int) (latency float64, dropped, ecn bool) {
	s := &c.s[i]
	return s.Latency, s.Dropped, s.ECN
}

// uniformSteps returns the window length shared by all samples, or 0
// when samples are empty, ragged, or have empty windows.
func uniformSteps(samples []Sample) int {
	if len(samples) == 0 {
		return 0
	}
	steps := len(samples[0].Window)
	for _, s := range samples {
		if len(s.Window) != steps {
			return 0
		}
	}
	return steps
}

// synthRow fills one synthetic feature row: feature 0 uniform in [0,1),
// feature 1 standard normal, the rest uniform in [-0.5,0.5).
func synthRow(rng *stats.Stream, features int) []float64 {
	row := make([]float64, features)
	row[0] = rng.Float64()
	if features > 1 {
		row[1] = rng.NormFloat64()
	}
	for k := 2; k < features; k++ {
		row[k] = rng.Float64() - 0.5
	}
	return row
}

// synthGaussianWindow draws one window of standard-normal rows — the
// hand-rolled builder previously copied across the gradient-check and
// stateful-inference tests.
func synthGaussianWindow(rng *stats.Stream, window, features int) [][]float64 {
	out := make([][]float64, window)
	for i := range out {
		row := make([]float64, features)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

// synthSamples builds the synthetic task used across the trainer tests
// (independent windows): latency = mean of feature 0 over the window,
// drop iff feature 1 of the last packet > 0, ECN iff feature 0 of the
// last packet > 0.7.
func synthSamples(n, features, window int, seed int64) []Sample {
	rng := stats.NewStream(seed)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		var s Sample
		var sum float64
		for j := 0; j < window; j++ {
			row := synthRow(rng, features)
			s.Window = append(s.Window, row)
			sum += row[0]
		}
		s.Latency = sum / float64(window)
		if features > 1 {
			s.Dropped = s.Window[window-1][1] > 0
		}
		s.ECN = s.Window[window-1][0] > 0.7
		out = append(out, s)
	}
	return out
}

// synthStream builds the same task over stream-shaped data — one row
// per packet, each sample's window the preceding rows of the stream,
// zero-padded before the start like a real boundary trace — and emits
// BOTH layouts from one draw sequence: the legacy padded []Sample and
// the columnar *SampleView. Identical float content across the two is
// what the layout-parity tests rely on. (Independent-window fixtures
// like synthSamples cannot be expressed as a single sliding-window
// matrix; stream-shaped data is the representable common case.)
func synthStream(n, features, window int, seed int64) ([]Sample, *SampleView) {
	rng := stats.NewStream(seed)
	view := NewSampleBank(features, window, n)
	rows := make([][]float64, 0, n)
	legacy := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		row := synthRow(rng, features)
		rows = append(rows, row)

		var s Sample
		sum := 0.0
		win := make([][]float64, 0, window)
		for j := i - window + 1; j <= i; j++ {
			if j < 0 {
				win = append(win, make([]float64, features))
				continue
			}
			win = append(win, rows[j])
			sum += rows[j][0]
		}
		s.Window = win
		s.Latency = sum / float64(window)
		if features > 1 {
			s.Dropped = row[1] > 0
		}
		s.ECN = row[0] > 0.7
		legacy = append(legacy, s)
		view.Feats = append(view.Feats, row...)
		view.PushTarget(s.Latency, s.Dropped, s.ECN)
	}
	return legacy, view
}

// evaluateOracle scores src one sample at a time through forwardOracle
// (a fresh Trace, fresh states and fresh caches per sample): the
// reference TestEvaluateMatchesPerSample holds the lane-bank Evaluate
// to, exactly.
func (m *Model) evaluateOracle(src windowSource) EvalResult {
	var res EvalResult
	count := src.Len()
	if count == 0 {
		return res
	}
	var win [][]float64
	for i := 0; i < count; i++ {
		win = src.WindowAppend(win[:0], i)
		p := m.forwardOracle(win)
		latTarget, dropped, ecn := src.Target(i)
		l, _ := mae(p.Latency, latTarget)
		res.LatencyMAE += l
		res.DropRatePred += p.PDrop
		res.ECNRatePred += p.PECN
		if dropped {
			res.DropRateTrue++
		}
		if ecn {
			res.ECNRateTrue++
		}
		latLoss, _ := m.Cfg.LatLoss.Eval(p.Latency, latTarget, m.Cfg.HuberDelta)
		res.Loss += latLoss
	}
	n := float64(count)
	res.LatencyMAE /= n
	res.DropRateTrue /= n
	res.DropRatePred /= n
	res.ECNRateTrue /= n
	res.ECNRatePred /= n
	res.Loss /= n
	return res
}

// sparseStream is a columnar view of n mostly-zero feature rows (like
// the one-hot feature blocks) with the synthStream targets: latency is
// feature 0 of the sample's last row folded into [0, 1), drop iff
// feature 1 > 0, ECN iff feature 0 > 0.3.
func sparseStream(n, features, window int, seed int64) *SampleView {
	rng := stats.NewStream(seed)
	view := NewSampleBank(features, window, n)
	for i := 0; i < n; i++ {
		row := sparseVec(features, rng)
		lat := row[0]
		if lat < 0 {
			lat = -lat
		}
		view.Feats = append(view.Feats, row...)
		view.PushTarget(lat, features > 1 && row[1] > 0, row[0] > 0.3)
	}
	return view
}

// defaultShapeTrainer returns a minibatch trainer for a model of the
// default artifact shape (23 features, hidden 24, window 12, one layer)
// with the given trunk, over a mostly-zero stream of 4·16 samples, and
// the first batch of 16 sample indices.
func defaultShapeTrainer(tb testing.TB, cell string, pool *Pool) (*miniBatchTrainer, *SampleView, []int) {
	tb.Helper()
	cfg := DefaultModelConfig(23, 12)
	cfg.CellType = cell
	model, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	B := cfg.BatchSize
	view := sparseStream(4*B, cfg.Features, cfg.Window, 5)
	idx := make([]int, B)
	for i := range idx {
		idx[i] = 3 * i // every third sample: lanes do not share windows
	}
	return newMiniBatchTrainer(model, pool), view, idx
}

// genericTrainLayer trains one trunk layer through the per-sample cell
// API — StepState/StepBackward per lane in ascending-lane order, serially
// because StepBackward accumulates into shared parameter gradients. It is
// the oracle TestGenericTrainLayerMatchesFused holds the fused trainer
// layers to, and the starting point for a new Cell class before it grows
// a fused path.
type genericTrainLayer struct {
	c      scalarCell
	states []CellState
	caches [][]CellCache // [step][lane]
	dh     [][]float64
	dc     [][]float64
}

func (t *genericTrainLayer) begin(n, steps int) {
	t.states = make([]CellState, n)
	t.dh = make([][]float64, n)
	t.dc = make([][]float64, n)
	for a := 0; a < n; a++ {
		t.states[a] = t.c.FreshState()
		t.dh[a] = Zeros(t.c.HiddenSize())
	}
	t.caches = make([][]CellCache, steps)
	for i := range t.caches {
		t.caches[i] = make([]CellCache, n)
	}
}

func (t *genericTrainLayer) forward(st, n int, xs, hs []float64) {
	in, H := t.c.InSize(), t.c.HiddenSize()
	for a := 0; a < n; a++ {
		h, cache := t.c.StepState(t.states[a], xs[a*in:(a+1)*in], true)
		t.caches[st][a] = cache
		copy(hs[a*H:(a+1)*H], h)
	}
}

func (t *genericTrainLayer) backward(st, n int, dhIn, dx []float64) {
	in, H := t.c.InSize(), t.c.HiddenSize()
	for a := 0; a < n; a++ {
		if dhIn != nil {
			AddTo(t.dh[a], dhIn[a*H:(a+1)*H])
		}
		dhPrev, dcPrev, dxv := t.c.StepBackward(t.caches[st][a], t.dh[a], t.dc[a])
		t.dh[a], t.dc[a] = dhPrev, dcPrev
		if dx != nil {
			copy(dx[a*in:(a+1)*in], dxv)
		}
	}
}
