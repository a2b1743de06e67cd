package ml

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"mimicnet/internal/stats"
)

func TestMatrixBasics(t *testing.T) {
	m := newMatrix(2, 3)
	copy(m.Data, []float64{1, 0, 2, 0, 3, 0})
	y := m.MulVec([]float64{1, 1, 1}, nil)
	if y[0] != 3 || y[1] != 3 {
		t.Errorf("MulVec = %v", y)
	}
	m.Grad[0] = 5
	m.ZeroGrad()
	if m.Grad[0] != 0 {
		t.Error("ZeroGrad failed")
	}
}

func TestMatrixMulVecDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected dim mismatch panic")
		}
	}()
	newMatrix(2, 3).MulVec([]float64{1}, nil)
}

func TestMatrixJSONRoundTrip(t *testing.T) {
	m := newMatrix(2, 2)
	m.InitXavier(stats.NewStream(1))
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Matrix
	if err := json.Unmarshal(b, &m2); err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		if m.Data[i] != m2.Data[i] {
			t.Fatal("weights changed in round trip")
		}
	}
	if len(m2.Grad) != len(m.Data) {
		t.Error("grad buffer not restored")
	}
	if err := m2.UnmarshalJSON([]byte(`{"rows":2,"cols":2,"data":[1]}`)); err == nil {
		t.Error("inconsistent JSON accepted")
	}
}

func TestSigmoidProperties(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Error("sigmoid(0) != 0.5")
	}
	if s := sigmoid(1000); s <= 0.999 || math.IsNaN(s) {
		t.Errorf("sigmoid overflow: %v", s)
	}
	if s := sigmoid(-1000); s >= 0.001 || math.IsNaN(s) {
		t.Errorf("sigmoid underflow: %v", s)
	}
}

// Numerical gradient check: the heart of trusting the BPTT code. We
// perturb every parameter of a small model and compare the analytic
// gradient against central differences.
func TestGradientCheck(t *testing.T) {
	cfg := ModelConfig{
		Features: 3, Hidden: 4, Layers: 2, Window: 3,
		HuberDelta: 1, LatLoss: LossHuber, DropWeight: 0.7,
		LatWeight: 1, DropLossW: 1, ECNLossW: 1,
		LR: 0.01, Epochs: 1, Seed: 3,
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewStream(9)
	sample := Sample{Latency: 0.3, Dropped: true, ECN: false}
	sample.Window = synthGaussianWindow(rng, cfg.Window, cfg.Features)

	lossAt := func() float64 {
		tr := ForwardWindow(m.Trunk, sample.Window, false)
		p := m.heads(tr.Outputs)
		lat, _ := m.Cfg.LatLoss.Eval(p.Latency, sample.Latency, cfg.HuberDelta)
		drop, _ := wbce(p.PDrop, 1, cfg.DropWeight)
		ecn, _ := bce(p.PECN, 0)
		return cfg.LatWeight*lat + cfg.DropLossW*drop + cfg.ECNLossW*ecn
	}

	// Analytic gradients.
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	m.trainStep(sample)

	const eps = 1e-6
	checked := 0
	for pi, p := range m.Params() {
		for i := 0; i < len(p.Data); i += 7 { // sample every 7th weight
			orig := p.Data[i]
			p.Data[i] = orig + eps
			up := lossAt()
			p.Data[i] = orig - eps
			down := lossAt()
			p.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			analytic := p.Grad[i]
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if math.Abs(numeric-analytic)/scale > 1e-4 {
				t.Fatalf("param %d index %d: analytic %v vs numeric %v", pi, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d weights checked", checked)
	}
}

func TestLossFunctions(t *testing.T) {
	if l, d := mae(2, 1); l != 1 || d != 1 {
		t.Errorf("MAE = %v, %v", l, d)
	}
	if l, d := mae(0, 1); l != 1 || d != -1 {
		t.Errorf("MAE neg = %v, %v", l, d)
	}
	if l, d := mse(3, 1); l != 4 || d != 4 {
		t.Errorf("MSE = %v, %v", l, d)
	}
	// Huber: quadratic inside delta, linear outside.
	if l, d := huber(1.5, 1, 1); l != 0.125 || d != 0.5 {
		t.Errorf("Huber inner = %v, %v", l, d)
	}
	if l, d := huber(3, 1, 1); l != 1.5 || d != 1 {
		t.Errorf("Huber outer = %v, %v", l, d)
	}
	if _, d := huber(-3, 1, 1); d != -1 {
		t.Errorf("Huber outer neg deriv = %v", d)
	}
	// BCE at perfect prediction is ~0; at opposite is large.
	if l, _ := bce(0.999999, 1); l > 1e-3 {
		t.Errorf("BCE perfect = %v", l)
	}
	if l, _ := bce(0.000001, 1); l < 5 {
		t.Errorf("BCE wrong = %v", l)
	}
	// WBCE with w=0.5 equals BCE/2.
	lb, _ := bce(0.3, 1)
	lw, _ := wbce(0.3, 1, 0.5)
	if math.Abs(lw-lb/2) > 1e-9 {
		t.Errorf("WBCE(0.5) = %v, want %v", lw, lb/2)
	}
	// Clamping keeps everything finite.
	for _, p := range []float64{0, 1, -5, 7} {
		for _, y := range []float64{0, 1} {
			if l, d := bce(p, y); math.IsInf(l, 0) || math.IsNaN(d) {
				t.Errorf("BCE(%v,%v) not finite", p, y)
			}
		}
	}
}

func TestRegressionLossSelector(t *testing.T) {
	for _, l := range []RegressionLoss{LossHuber, LossMAE, LossMSE} {
		if l.String() == "unknown" {
			t.Errorf("loss %d has no name", l)
		}
		loss, _ := l.Eval(2, 1, 1)
		if loss <= 0 {
			t.Errorf("%v loss not positive", l)
		}
	}
	if RegressionLoss(99).String() != "unknown" {
		t.Error("unknown loss name")
	}
}

func TestDiscretizer(t *testing.T) {
	d := Discretizer{Lo: 0, Hi: 10, D: 10}
	if d.Quantize(-5) != 0 || d.Quantize(50) != 9 {
		t.Error("clamping failed")
	}
	if d.Quantize(5.5) != 5 {
		t.Errorf("Quantize(5.5) = %d", d.Quantize(5.5))
	}
	// Normalize snaps to midpoints; Recover returns them.
	n := d.Normalize(5.5)
	if math.Abs(n-0.55) > 1e-12 {
		t.Errorf("Normalize(5.5) = %v", n)
	}
	if got := d.Recover(n); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("Recover = %v, want 5.5", got)
	}
	// Continuous mode (D<=1).
	c := Discretizer{Lo: 0, Hi: 10, D: 1}
	if c.Normalize(5) != 0.5 || c.Recover(0.5) != 5 {
		t.Error("continuous mode broken")
	}
	if c.Normalize(-1) != 0 || c.Normalize(11) != 1 {
		t.Error("continuous clamp broken")
	}
	// Degenerate range.
	deg := Discretizer{Lo: 5, Hi: 5, D: 10}
	if deg.Normalize(7) != 0 || deg.Quantize(7) != 0 {
		t.Error("degenerate range should be safe")
	}
}

// Property: Recover(Normalize(v)) is within one bin width of clamp(v).
func TestDiscretizerRoundTripProperty(t *testing.T) {
	f := func(vRaw int16, dRaw uint8) bool {
		d := Discretizer{Lo: -100, Hi: 100, D: int(dRaw%64) + 2}
		v := float64(vRaw) / 100
		got := d.Recover(d.Normalize(v))
		binW := (d.Hi - d.Lo) / float64(d.D)
		clamped := math.Max(d.Lo, math.Min(d.Hi, v))
		return math.Abs(got-clamped) <= binW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatefulRunnerMatchesForwardWindow(t *testing.T) {
	cfg := DefaultModelConfig(4, 5)
	cfg.Layers = 2
	m, _ := NewModel(cfg)
	rng := stats.NewStream(5)
	window := synthGaussianWindow(rng, 5, 4)
	tr := ForwardWindow(m.Trunk, window, false)
	sr := NewStatefulModel(m)
	var last Prediction
	for _, x := range window {
		last = sr.Predict(x)
	}
	fromWindow := m.heads(tr.Outputs)
	if math.Abs(last.Latency-fromWindow.Latency) > 1e-12 ||
		math.Abs(last.PDrop-fromWindow.PDrop) > 1e-12 {
		t.Error("stateful inference diverges from windowed forward")
	}
	if sr.Steps != 5 {
		t.Errorf("Steps = %d", sr.Steps)
	}
	sr.Reset()
	again := sr.Predict(window[0])
	sr2 := NewStatefulModel(m)
	first := sr2.Predict(window[0])
	if again.Latency != first.Latency {
		t.Error("Reset did not clear state")
	}
}

// TestAdvanceUpdatesState: a masked bank step (a feeder advance, output
// discarded) still moves the lane's hidden state.
func TestAdvanceUpdatesState(t *testing.T) {
	cfg := DefaultModelConfig(2, 3)
	m, _ := NewModel(cfg)
	bank := NewBatchedStatefulModel(m, 2, nil)
	x := []float64{1, -1}
	bank.StepLanes([]int{0}, [][]float64{x}, []bool{false}, nil) // advance lane 0 silently
	preds := make([]Prediction, 2)
	bank.StepLanes([]int{0, 1}, [][]float64{x, x}, nil, preds) // lane 1 is fresh
	if preds[0].Latency == preds[1].Latency {
		t.Error("a masked step did not change hidden state")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Synthetic task: latency = mean of feature 0 over the window; drop
	// iff feature 1 of last packet > 0.
	cfg := DefaultModelConfig(2, 4)
	cfg.Epochs = 12
	cfg.Hidden = 12
	m, _ := NewModel(cfg)
	rng := stats.NewStream(11)
	var samples []Sample
	for i := 0; i < 400; i++ {
		var s Sample
		var sum float64
		for j := 0; j < cfg.Window; j++ {
			f0 := rng.Float64()
			f1 := rng.NormFloat64()
			s.Window = append(s.Window, []float64{f0, f1})
			sum += f0
		}
		s.Latency = sum / float64(cfg.Window)
		s.Dropped = s.Window[cfg.Window-1][1] > 0
		samples = append(samples, s)
	}
	res := m.Train(samplesOf(samples))
	if len(res.EpochLoss) != cfg.Epochs {
		t.Fatalf("epoch losses = %d", len(res.EpochLoss))
	}
	first, last := res.EpochLoss[0], res.EpochLoss[cfg.Epochs-1]
	if last >= first*0.8 {
		t.Errorf("training did not reduce loss: %v -> %v", first, last)
	}
	ev := m.Evaluate(samplesOf(samples))
	if ev.LatencyMAE > 0.15 {
		t.Errorf("latency MAE = %v after training", ev.LatencyMAE)
	}
}

// Figure 5's core claim: with plain BCE on imbalanced drops, the model
// underpredicts the drop rate by ~an order of magnitude; WBCE recovers a
// realistic rate.
func TestWBCEBeatsBCEOnImbalance(t *testing.T) {
	makeSamples := func() []Sample {
		rng := stats.NewStream(21)
		var out []Sample
		for i := 0; i < 600; i++ {
			var s Sample
			risk := rng.Float64()
			for j := 0; j < 4; j++ {
				s.Window = append(s.Window, []float64{risk + 0.1*rng.NormFloat64()})
			}
			// ~3% drop rate concentrated at high risk.
			s.Dropped = risk > 0.9 && rng.Float64() < 0.3
			s.Latency = risk
			out = append(out, s)
		}
		return out
	}
	train := func(w float64) EvalResult {
		cfg := DefaultModelConfig(1, 4)
		cfg.DropWeight = w
		cfg.Epochs = 6
		cfg.DropLossW = 2
		m, _ := NewModel(cfg)
		samples := makeSamples()
		m.Train(samplesOf(samples))
		return m.Evaluate(samplesOf(samples))
	}
	bce := train(0)    // plain BCE
	wbce := train(0.8) // weighted
	if wbce.DropRatePred <= bce.DropRatePred {
		t.Errorf("WBCE pred rate %v should exceed BCE %v on imbalanced data",
			wbce.DropRatePred, bce.DropRatePred)
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	cfg := DefaultModelConfig(3, 4)
	m, _ := NewModel(cfg)
	window := [][]float64{{1, 0, -1}, {0.5, 0.2, 0}, {0, 1, 1}, {-1, 0, 0.3}}
	before := m.Forward(window)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := json.Unmarshal(b, &m2); err != nil {
		t.Fatal(err)
	}
	after := m2.Forward(window)
	if before.Latency != after.Latency || before.PDrop != after.PDrop || before.PECN != after.PECN {
		t.Error("serialized model predicts differently")
	}
}

func TestModelConfigValidation(t *testing.T) {
	bad := []func(*ModelConfig){
		func(c *ModelConfig) { c.Features = 0 },
		func(c *ModelConfig) { c.Hidden = 0 },
		func(c *ModelConfig) { c.Layers = 0 },
		func(c *ModelConfig) { c.Window = 0 },
		func(c *ModelConfig) { c.LR = 0 },
		func(c *ModelConfig) { c.Epochs = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultModelConfig(3, 4)
		mut(&cfg)
		if _, err := NewModel(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOptimizersReduceQuadratic(t *testing.T) {
	// Minimize (x-3)^2 with Adam, the one optimizer.
	p := newMatrix(1, 1)
	opt := newAdam(0.1)
	for i := 0; i < 200; i++ {
		p.Grad[0] = 2 * (p.Data[0] - 3)
		opt.Step([]*Matrix{p})
	}
	if math.Abs(p.Data[0]-3) > 0.05 {
		t.Errorf("adam converged to %v, want 3", p.Data[0])
	}
	if p.Grad[0] != 0 {
		t.Error("adam did not zero grads")
	}
}

func TestClipGrads(t *testing.T) {
	p := newMatrix(1, 2)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	norm := clipGrads([]*Matrix{p}, 1)
	if norm != 5 {
		t.Errorf("returned norm %v", norm)
	}
	if math.Abs(p.Grad[0]-0.6) > 1e-12 || math.Abs(p.Grad[1]-0.8) > 1e-12 {
		t.Errorf("clipped grads = %v", p.Grad)
	}
	// Below the cap: untouched.
	p.Grad[0], p.Grad[1] = 0.1, 0.1
	clipGrads([]*Matrix{p}, 1)
	if p.Grad[0] != 0.1 {
		t.Error("grads below cap were modified")
	}
}

func TestFLOPsPerStepScalesWithSize(t *testing.T) {
	small, _ := NewModel(DefaultModelConfig(4, 4))
	bigCfg := DefaultModelConfig(4, 4)
	bigCfg.Hidden = 64
	big, _ := NewModel(bigCfg)
	if big.FLOPsPerStep() <= small.FLOPsPerStep() {
		t.Error("FLOPs should grow with hidden size")
	}
	if small.FLOPsPerStep() <= 0 {
		t.Error("non-positive FLOPs")
	}
}

// TestFLOPsPerStepPerCell pins the count per cell class: 4H gate rows
// for an LSTM, 3H for a GRU (¾ of the LSTM's trunk at the same shape),
// one H × In·Window product for the MLP, plus 6H for the three heads.
// It pins StepCost too, the multiply-add equivalents a lane step states
// to Pool.Range: each product once, gate passes at gateMulAdds per
// element, H per head.
func TestFLOPsPerStepPerCell(t *testing.T) {
	const F, H, W = 23, 24, 12
	const heads = 6 * H
	const g = gateMulAdds
	for _, tc := range []struct {
		cell   string
		layers int
		want   float64
		cost   int
	}{
		{"lstm", 1, 2*4*H*(F+H) + heads, 4*H*(F+H) + 5*H*g + 3*H},
		{"lstm", 2, 2*4*H*(F+H) + 2*4*H*(H+H) + heads, 4*H*(F+H) + 4*H*(H+H) + 2*5*H*g + 3*H},
		{"gru", 1, 2*3*H*(F+H) + heads, 3*H*(F+H) + 3*H*g + 3*H},
		{"gru", 2, 2*3*H*(F+H) + 2*3*H*(H+H) + heads, 3*H*(F+H) + 3*H*(H+H) + 2*3*H*g + 3*H},
		{"mlp", 1, 2*H*F*W + heads, H*F*W + H*g + 3*H},
	} {
		cfg := DefaultModelConfig(F, W)
		cfg.CellType, cfg.Layers = tc.cell, tc.layers
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.FLOPsPerStep(); got != tc.want {
			t.Errorf("%s × %d: FLOPsPerStep = %v, want %v", tc.cell, tc.layers, got, tc.want)
		}
		if got := NewBatchedStatefulModel(m, 0, NewPool(1)).StepCost(); got != tc.cost {
			t.Errorf("%s × %d: StepCost = %d, want %d", tc.cell, tc.layers, got, tc.cost)
		}
	}
	lstm, _ := NewModel(DefaultModelConfig(F, W))
	gruCfg := DefaultModelConfig(F, W)
	gruCfg.CellType = "gru"
	gru, _ := NewModel(gruCfg)
	if got, want := gru.FLOPsPerStep()-heads, 0.75*(lstm.FLOPsPerStep()-heads); got != want {
		t.Errorf("gru trunk = %v FLOPs, want ¾ of lstm's = %v", got, want)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m, _ := NewModel(DefaultModelConfig(2, 2))
	if ev := m.Evaluate(samplesOf(nil)); ev.Loss != 0 {
		t.Error("empty evaluate should be zero")
	}
}

// Gradient checks for the alternative trunk classes — the same central-
// difference validation the LSTM gets.
func TestGradientCheckGRUAndMLP(t *testing.T) {
	for _, cellType := range []string{"gru", "mlp"} {
		layers := 2
		if cellType == "mlp" {
			layers = 1
		}
		cfg := ModelConfig{
			Features: 3, Hidden: 4, Layers: layers, Window: 3,
			HuberDelta: 1, LatLoss: LossHuber, DropWeight: 0.7,
			LatWeight: 1, DropLossW: 1, ECNLossW: 1,
			LR: 0.01, Epochs: 1, Seed: 3, CellType: cellType,
		}
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewStream(13)
		sample := Sample{Latency: 0.4, Dropped: false, ECN: true}
		sample.Window = synthGaussianWindow(rng, cfg.Window, cfg.Features)
		lossAt := func() float64 {
			tr := ForwardWindow(m.Trunk, sample.Window, false)
			p := m.heads(tr.Outputs)
			lat, _ := m.Cfg.LatLoss.Eval(p.Latency, sample.Latency, cfg.HuberDelta)
			drop, _ := wbce(p.PDrop, 0, cfg.DropWeight)
			ecn, _ := bce(p.PECN, 1)
			return cfg.LatWeight*lat + cfg.DropLossW*drop + cfg.ECNLossW*ecn
		}
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		m.trainStep(sample)
		const eps = 1e-6
		checked := 0
		for pi, p := range m.Params() {
			for i := 0; i < len(p.Data); i += 5 {
				orig := p.Data[i]
				p.Data[i] = orig + eps
				up := lossAt()
				p.Data[i] = orig - eps
				down := lossAt()
				p.Data[i] = orig
				numeric := (up - down) / (2 * eps)
				analytic := p.Grad[i]
				scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
				if math.Abs(numeric-analytic)/scale > 1e-4 {
					t.Fatalf("%s param %d idx %d: analytic %v vs numeric %v",
						cellType, pi, i, analytic, numeric)
				}
				checked++
			}
		}
		if checked < 12 {
			t.Fatalf("%s: only %d weights checked", cellType, checked)
		}
	}
}

func TestAllCellTypesTrainAndSerialize(t *testing.T) {
	rng := stats.NewStream(17)
	var samples []Sample
	for i := 0; i < 200; i++ {
		var s Sample
		var sum float64
		for j := 0; j < 4; j++ {
			v := rng.Float64()
			s.Window = append(s.Window, []float64{v, rng.NormFloat64()})
			sum += v
		}
		s.Latency = sum / 4
		samples = append(samples, s)
	}
	for _, cellType := range []string{"lstm", "gru", "mlp"} {
		cfg := DefaultModelConfig(2, 4)
		cfg.CellType = cellType
		cfg.Epochs = 6
		cfg.Hidden = 10
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cellType, err)
		}
		res := m.Train(samplesOf(samples))
		if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
			t.Errorf("%s: training did not reduce loss: %v", cellType, res.EpochLoss)
		}
		if m.Trunk[0].CellType() != cellType {
			t.Errorf("%s: trunk type = %q", cellType, m.Trunk[0].CellType())
		}
		// Serialization round trip preserves predictions.
		before := m.Forward(samples[0].Window)
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var m2 Model
		if err := json.Unmarshal(blob, &m2); err != nil {
			t.Fatal(err)
		}
		after := m2.Forward(samples[0].Window)
		if before != after {
			t.Errorf("%s: serialization changed predictions", cellType)
		}
		// Streaming inference matches windowed inference for recurrent and
		// windowed cells alike (the MLP's ring buffer makes this hold too).
		sr := NewStatefulModel(m)
		var last Prediction
		for _, x := range samples[0].Window {
			last = sr.Predict(x)
		}
		if math.Abs(last.Latency-before.Latency) > 1e-12 {
			t.Errorf("%s: streaming diverges from windowed", cellType)
		}
	}
}

func TestUnknownCellTypeRejected(t *testing.T) {
	cfg := DefaultModelConfig(2, 4)
	cfg.CellType = "transformer"
	if _, err := NewModel(cfg); err == nil {
		t.Error("unknown cell type accepted")
	}
	cfg.CellType = "mlp"
	cfg.Layers = 2
	if _, err := NewModel(cfg); err == nil {
		t.Error("stacked mlp accepted")
	}
	var m Model
	if err := m.UnmarshalJSON([]byte(`{"cfg":{"features":1,"hidden":1,"layers":1,"window":1,"lr":1,"epochs":1},"trunk":[{"type":"bogus"}],"lat_head":{"W":{"rows":1,"cols":1,"data":[1]},"B":{"rows":1,"cols":1,"data":[0]}},"drop_head":{"W":{"rows":1,"cols":1,"data":[1]},"B":{"rows":1,"cols":1,"data":[0]}},"ecn_head":{"W":{"rows":1,"cols":1,"data":[1]},"B":{"rows":1,"cols":1,"data":[0]}}}`)); err == nil {
		t.Error("bogus serialized cell accepted")
	}
}
