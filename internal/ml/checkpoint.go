package ml

import (
	"fmt"

	"mimicnet/internal/stats"
)

// Training checkpoints extend the repo's determinism guarantees into the
// failure domain: a TrainContext run killed at any point and resumed
// from its newest checkpoint produces a final model bitwise identical to
// an uninterrupted run (DESIGN.md decision 12). That requires capturing
// every piece of state the epoch loop reads:
//
//   - parameter values (the weights being trained),
//   - Adam first/second moments and step counter (the optimizer's
//     trajectory is state, not just the weights),
//   - the epoch cursor and accumulated per-epoch losses,
//   - the shuffle permutation (it evolves cumulatively across epochs),
//   - the RNG stream position (stats.StreamState, exact to the source
//     draw).
//
// Checkpoints are cut at epoch boundaries: gradients are all applied,
// no minibatch is in flight, and the fused trainers hold no state that
// survives into the next epoch. The serialized form is JSON — float64s
// round-trip bit-exactly through Go's shortest-representation encoding,
// which the registry's model blobs already rely on.

// TrainCheckpoint is a resumable training cursor. Produced by the epoch
// loop via TrainOpts.SaveCheckpoint, consumed via TrainOpts.ResumeFrom.
type TrainCheckpoint struct {
	// Cfg fingerprints the run; a resume against a different config or
	// sample count is rejected rather than silently diverging.
	Cfg     ModelConfig `json:"cfg"`
	Samples int         `json:"samples"`

	// Epoch counts fully completed epochs (the loop resumes at this
	// index).
	Epoch int `json:"epoch"`

	RNG       stats.StreamState `json:"rng"`
	Idx       []int             `json:"idx"`
	Params    [][]float64       `json:"params"` // Model.Params() order
	Opt       AdamState         `json:"opt"`
	EpochLoss []float64         `json:"epoch_loss"`
}

// Complete reports whether the checkpoint marks a finished run: every
// epoch applied, nothing left to train.
func (ck *TrainCheckpoint) Complete() bool {
	return ck != nil && ck.Epoch >= ck.Cfg.Epochs
}

// captureCheckpoint snapshots the training loop's state after
// `epochsDone` completed epochs. Everything is deep-copied: the caller
// may persist the checkpoint asynchronously while training continues.
func (m *Model) captureCheckpoint(epochsDone, samples int, rng *stats.Stream,
	idx []int, opt *adam, epochLoss []float64) *TrainCheckpoint {
	params := m.Params()
	ck := &TrainCheckpoint{
		Cfg:       m.Cfg,
		Samples:   samples,
		Epoch:     epochsDone,
		RNG:       rng.State(),
		Idx:       append([]int(nil), idx...),
		Params:    make([][]float64, len(params)),
		Opt:       opt.State(params),
		EpochLoss: append([]float64(nil), epochLoss...),
	}
	for i, p := range params {
		ck.Params[i] = append([]float64(nil), p.Data...)
	}
	return ck
}

// restoreCheckpoint loads weights and validates shape compatibility.
// The optimizer/RNG/cursor halves are restored by the fit loop.
func (m *Model) restoreCheckpoint(ck *TrainCheckpoint, samples int) error {
	if ck.Cfg != m.Cfg {
		return fmt.Errorf("ml: checkpoint config mismatch (ckpt %+v vs model %+v)", ck.Cfg, m.Cfg)
	}
	if ck.Samples != samples {
		return fmt.Errorf("ml: checkpoint built over %d samples, training over %d", ck.Samples, samples)
	}
	if ck.Epoch > m.Cfg.Epochs {
		return fmt.Errorf("ml: checkpoint epoch %d beyond configured %d", ck.Epoch, m.Cfg.Epochs)
	}
	if len(ck.Idx) != samples {
		return fmt.Errorf("ml: checkpoint permutation covers %d samples, want %d", len(ck.Idx), samples)
	}
	params := m.Params()
	if len(ck.Params) != len(params) {
		return fmt.Errorf("ml: checkpoint has %d parameter tensors, model has %d", len(ck.Params), len(params))
	}
	for i, p := range params {
		if len(ck.Params[i]) != len(p.Data) {
			return fmt.Errorf("ml: checkpoint tensor %d has %d values, model wants %d",
				i, len(ck.Params[i]), len(p.Data))
		}
	}
	if err := ck.Opt.validate(params); err != nil {
		return err
	}
	for i, p := range params {
		copy(p.Data, ck.Params[i])
		p.ZeroGrad()
	}
	return nil
}
