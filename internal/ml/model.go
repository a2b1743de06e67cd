package ml

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"mimicnet/internal/stats"
)

// ModelConfig holds the hyper-parameters of a Mimic internal model; the
// tunable ones (WBCE weight, Huber delta, layers, hidden size, epochs,
// learning rate) are exactly the knobs the paper's hyper-parameter tuning
// phase explores (§7.2).
type ModelConfig struct {
	Features int `json:"features"` // per-packet feature width
	Hidden   int `json:"hidden"`   // LSTM hidden size
	Layers   int `json:"layers"`   // stacked LSTM count
	Window   int `json:"window"`   // packets per training window

	HuberDelta float64        `json:"huber_delta"` // Huber threshold
	LatLoss    RegressionLoss `json:"lat_loss"`    // latency loss selection
	DropWeight float64        `json:"drop_weight"` // WBCE w; 0 => plain BCE

	// Loss mixing weights. The paper favors latency over classification
	// because regression is the harder task (§5.4).
	LatWeight float64 `json:"lat_weight"`
	DropLossW float64 `json:"drop_loss_w"`
	ECNLossW  float64 `json:"ecn_loss_w"`

	LR       float64 `json:"lr"`
	Epochs   int     `json:"epochs"`
	ClipNorm float64 `json:"clip_norm"`
	Seed     int64   `json:"seed"`

	// BatchSize is the minibatch width: one optimizer step per batch of
	// this many samples, 1 meaning one step per sample; 0 means
	// defaultBatchSize. Affects training results, so it participates in
	// the model cache key.
	BatchSize int `json:"batch_size,omitempty"`

	// CellType selects the trunk class: "lstm" (default), "gru", or
	// "mlp" (non-recurrent windowed baseline).
	CellType string `json:"cell_type,omitempty"`
}

// DefaultModelConfig returns a small, fast configuration with the paper's
// recommended loss setup (Huber δ=1, WBCE w=0.7).
func DefaultModelConfig(features, window int) ModelConfig {
	return ModelConfig{
		Features: features, Hidden: 24, Layers: 1, Window: window,
		HuberDelta: 1.0, LatLoss: LossHuber, DropWeight: 0.7,
		LatWeight: 2.0, DropLossW: 1.0, ECNLossW: 0.5,
		LR: 3e-3, Epochs: 4, ClipNorm: 5.0, Seed: 1,
		// Explicit (not 0) so the batch width is visible in the
		// serialized config and in model cache keys: models trained at
		// different widths must not collide.
		BatchSize: defaultBatchSize,
	}
}

// Validate reports configuration errors.
func (c ModelConfig) Validate() error {
	switch {
	case c.Features < 1:
		return fmt.Errorf("ml: features must be >= 1")
	case c.Hidden < 1:
		return fmt.Errorf("ml: hidden must be >= 1")
	case c.Layers < 1:
		return fmt.Errorf("ml: layers must be >= 1")
	case c.Window < 1:
		return fmt.Errorf("ml: window must be >= 1")
	case c.LR <= 0:
		return fmt.Errorf("ml: learning rate must be positive")
	case c.Epochs < 1:
		return fmt.Errorf("ml: epochs must be >= 1")
	case c.BatchSize < 0:
		return fmt.Errorf("ml: batch size must be >= 0 (0 selects the default)")
	}
	switch c.CellType {
	case "", "lstm", "gru":
	case "mlp":
		// The windowed MLP has no recurrent path to route gradients to
		// earlier steps of a layer below it, so stacking would silently
		// truncate gradients. Keep the baseline honest: one layer only.
		if c.Layers > 1 {
			return fmt.Errorf("ml: mlp trunk supports a single layer")
		}
	default:
		return fmt.Errorf("ml: unknown cell type %q", c.CellType)
	}
	return nil
}

// Prediction is the model output for one packet.
type Prediction struct {
	Latency float64 // normalized [0,1]
	PDrop   float64
	PECN    float64
}

// Model is the Mimic internal model: a stacked-LSTM trunk over packet
// feature windows with three heads predicting latency, drop probability,
// and ECN-mark probability (paper §5.2, §5.5).
type Model struct {
	Cfg      ModelConfig
	Trunk    []Cell
	LatHead  *Linear
	DropHead *Linear
	ECNHead  *Linear
}

// NewModel builds and initializes a model.
func NewModel(cfg ModelConfig) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := stats.NewStream(cfg.Seed)
	m := &Model{Cfg: cfg}
	in := cfg.Features
	for i := 0; i < cfg.Layers; i++ {
		switch cfg.CellType {
		case "gru":
			m.Trunk = append(m.Trunk, newGRU(in, cfg.Hidden, s))
		case "mlp":
			m.Trunk = append(m.Trunk, newWindowMLP(in, cfg.Hidden, cfg.Window, s))
		default:
			m.Trunk = append(m.Trunk, newLSTM(in, cfg.Hidden, s))
		}
		in = cfg.Hidden
	}
	m.LatHead = newLinear(cfg.Hidden, 1, s)
	m.DropHead = newLinear(cfg.Hidden, 1, s)
	m.ECNHead = newLinear(cfg.Hidden, 1, s)
	return m, nil
}

// Params returns all trainable parameters.
func (m *Model) Params() []*Matrix {
	var ps []*Matrix
	for _, l := range m.Trunk {
		ps = append(ps, l.Params()...)
	}
	ps = append(ps, m.LatHead.Params()...)
	ps = append(ps, m.DropHead.Params()...)
	ps = append(ps, m.ECNHead.Params()...)
	return ps
}

// CheckFinite returns an error naming the first NaN or ±Inf weight or
// bias. Batched inference skips exact-zero inputs, which matches the
// per-packet dot only while every weight is finite (Inf·0 is NaN, not a
// no-op; rowkernel.go), so core refuses such an artifact where it
// enters inference: on load and at the end of training.
func (m *Model) CheckFinite() error {
	for i, p := range m.Params() {
		for j, v := range p.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: parameter %d (%dx%d) element (%d,%d) is %v", i, p.Rows, p.Cols, j/p.Cols, j%p.Cols, v)
			}
		}
	}
	return nil
}

// Forward predicts for one window (inference): a one-lane bank stepped
// over the window's rows from zero state, read at the last row.
func (m *Model) Forward(window [][]float64) Prediction {
	bank := NewBatchedStatefulModel(m, 1, nil)
	lane, xs := []int{0}, make([][]float64, 1)
	var out [1]Prediction
	for _, x := range window {
		xs[0] = x
		bank.StepLanes(lane, xs, nil, out[:])
	}
	return out[0]
}

// TrainResult reports per-epoch average losses and total wall-clock-free
// work estimates.
type TrainResult struct {
	EpochLoss []float64
	Samples   int
}

// Train fits the model to src with Adam, shuffling each epoch. It is
// TrainContext without cancellation or progress reporting.
func (m *Model) Train(src SampleSource) TrainResult {
	res, _ := m.TrainContext(context.Background(), src, TrainOpts{})
	return res
}

// TrainContext fits the model to src with Adam, shuffling each epoch.
// Cancellation is honored between optimizer steps (parameters are never
// left mid-update; pending gradients are dropped), in which case the
// partial result and ctx's error are returned. opts.Progress, when
// non-nil, receives one report per finished epoch.
//
// When opts.ResumeFrom carries a checkpoint, weights, optimizer moments,
// shuffle permutation, and RNG position are restored first and training
// continues at the checkpoint's epoch cursor; the final model is bitwise
// identical to an uninterrupted run with the same config and samples.
func (m *Model) TrainContext(ctx context.Context, src SampleSource, opts TrainOpts) (TrainResult, error) {
	rng := stats.NewStream(m.Cfg.Seed + 1)
	if ck := opts.ResumeFrom; ck != nil {
		if err := m.restoreCheckpoint(ck, src.Len()); err != nil {
			return TrainResult{Samples: src.Len()}, err
		}
		rng = stats.RestoreStream(ck.RNG)
	}
	return m.fit(ctx, m.Cfg.LR, rng, src, m.Cfg.Epochs, opts)
}

// EvalResult aggregates test-set quality per task.
type EvalResult struct {
	LatencyMAE   float64 // on the normalized scale
	DropRateTrue float64
	DropRatePred float64 // expected drop rate from predicted probabilities
	ECNRateTrue  float64
	ECNRatePred  float64
	Loss         float64
}

// evalLanes is how many held-out windows Evaluate scores at once: one
// full lane tile of the trainer's default batch.
const evalLanes = 16

// Evaluate scores src without updating parameters. Windows go through
// one lane bank evalLanes at a time: each group's lanes are reset, fed
// one StepLanes call per window row, and read at the last row, so every
// prediction equals Forward on the sample's window, and the sums run in
// ascending sample order. The bank and its buffers are built once per
// call, so scoring allocates nothing per sample.
func (m *Model) Evaluate(src SampleSource) EvalResult {
	var res EvalResult
	count := src.Len()
	if count == 0 {
		return res
	}
	bank := NewBatchedStatefulModel(m, evalLanes, nil)
	width, steps := m.Cfg.Features, src.Steps()
	var (
		lanes [evalLanes]int
		xs    [evalLanes][]float64
		skip  [evalLanes]bool // heads are read at the last row only
		preds [evalLanes]Prediction
	)
	rows := make([]float64, evalLanes*width)
	for a := range lanes {
		lanes[a] = a
		xs[a] = rows[a*width : (a+1)*width]
	}
	for lo := 0; lo < count; lo += evalLanes {
		n := min(evalLanes, count-lo)
		for a := 0; a < n; a++ {
			bank.ResetLane(a)
		}
		for st := 0; st < steps; st++ {
			for a := 0; a < n; a++ {
				copy(xs[a], src.Row(lo+a, st))
			}
			if st < steps-1 {
				bank.StepLanes(lanes[:n], xs[:n], skip[:n], nil)
			} else {
				bank.StepLanes(lanes[:n], xs[:n], nil, preds[:n])
			}
		}
		for a, p := range preds[:n] {
			latTarget, dropped, ecn := src.Target(lo + a)
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

// FLOPsPerStep estimates floating-point operations for one inference
// step (one packet through trunk + heads), for the Figure 23 compute
// accounting: a multiply and an add per weight of each trunk product
// (gate rows × (input + hidden) for the recurrent cells, one hidden ×
// window product for the MLP) and of the three scalar heads.
func (m *Model) FLOPsPerStep() float64 {
	var f float64
	for _, c := range m.Trunk {
		switch l := c.(type) {
		case *lstm:
			f += 2 * float64(4*l.Hidden*(l.In+l.Hidden))
		case *gru:
			f += 2 * float64(3*l.Hidden*(l.In+l.Hidden))
		case *windowMLP:
			f += 2 * float64(l.Hidden*l.In*l.Window)
		}
	}
	return f + 3*2*float64(m.Cfg.Hidden)
}

// modelJSON is the serialized form.
type modelJSON struct {
	Cfg      ModelConfig `json:"cfg"`
	Trunk    []*cellJSON `json:"trunk"`
	LatHead  *linJSON    `json:"lat_head"`
	DropHead *linJSON    `json:"drop_head"`
	ECNHead  *linJSON    `json:"ecn_head"`
}

// cellJSON serializes any supported trunk cell. LSTM/GRU use Wx/Wh/B;
// the MLP uses W/B with its window size.
type cellJSON struct {
	Type       string `json:"type"`
	In, Hidden int
	Window     int     `json:"window,omitempty"`
	Wx, Wh     *Matrix `json:",omitempty"`
	W          *Matrix `json:",omitempty"`
	B          *Matrix
}

type linJSON struct {
	W, B *Matrix
}

func cellToJSON(c Cell) (*cellJSON, error) {
	switch l := c.(type) {
	case *lstm:
		return &cellJSON{Type: "lstm", In: l.In, Hidden: l.Hidden, Wx: l.Wx, Wh: l.Wh, B: l.B}, nil
	case *gru:
		return &cellJSON{Type: "gru", In: l.In, Hidden: l.Hidden, Wx: l.Wx, Wh: l.Wh, B: l.B}, nil
	case *windowMLP:
		return &cellJSON{Type: "mlp", In: l.In, Hidden: l.Hidden, Window: l.Window, W: l.W, B: l.B}, nil
	}
	return nil, fmt.Errorf("ml: cannot serialize cell type %q", c.CellType())
}

func cellFromJSON(cj *cellJSON) (Cell, error) {
	switch cj.Type {
	case "lstm":
		return &lstm{In: cj.In, Hidden: cj.Hidden, Wx: cj.Wx, Wh: cj.Wh, B: cj.B}, nil
	case "gru":
		return &gru{In: cj.In, Hidden: cj.Hidden, Wx: cj.Wx, Wh: cj.Wh, B: cj.B}, nil
	case "mlp":
		return &windowMLP{In: cj.In, Hidden: cj.Hidden, Window: cj.Window, W: cj.W, B: cj.B}, nil
	}
	return nil, fmt.Errorf("ml: unknown serialized cell type %q", cj.Type)
}

// MarshalJSON serializes the model weights and config.
func (m *Model) MarshalJSON() ([]byte, error) {
	mj := modelJSON{Cfg: m.Cfg}
	for _, l := range m.Trunk {
		cj, err := cellToJSON(l)
		if err != nil {
			return nil, err
		}
		mj.Trunk = append(mj.Trunk, cj)
	}
	mj.LatHead = &linJSON{m.LatHead.W, m.LatHead.B}
	mj.DropHead = &linJSON{m.DropHead.W, m.DropHead.B}
	mj.ECNHead = &linJSON{m.ECNHead.W, m.ECNHead.B}
	return json.Marshal(mj)
}

// UnmarshalJSON restores a serialized model.
func (m *Model) UnmarshalJSON(b []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(b, &mj); err != nil {
		return err
	}
	m.Cfg = mj.Cfg
	m.Trunk = nil
	for _, cj := range mj.Trunk {
		c, err := cellFromJSON(cj)
		if err != nil {
			return err
		}
		m.Trunk = append(m.Trunk, c)
	}
	m.LatHead = &Linear{W: mj.LatHead.W, B: mj.LatHead.B}
	m.DropHead = &Linear{W: mj.DropHead.W, B: mj.DropHead.B}
	m.ECNHead = &Linear{W: mj.ECNHead.W, B: mj.ECNHead.B}
	return nil
}
