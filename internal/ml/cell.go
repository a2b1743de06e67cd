package ml

// The paper: "MimicNet can support any ML model. Given our desire for
// generality, however, it currently leverages one particularly promising
// class of models: LSTMs" (§5.5). Cell abstracts the trunk layer so the
// framework genuinely supports alternative model classes; this repo ships
// LSTM (the default), GRU, and a windowed MLP baseline.

// batchState is a cell's recurrent state for a bank of independent lanes
// (one lane per concurrent packet stream), with the layer's weights
// packed for the row kernel and its fused step's scratch.
type batchState interface{}

// Cell is one trainable trunk layer. Inference advances a bank of lanes
// through one fused step per round (BatchedStatefulModel); training runs
// the cell's minibatch trainer layer (train_batch.go), whose forward is
// the same per-lane step on a batch state of its own. A fused step keeps
// the per-element accumulation order of the per-packet reference step
// (dot/dotAcc), which the parity tests in batch_test.go enforce.
type Cell interface {
	// InSize and HiddenSize give the layer's dimensions.
	InSize() int
	HiddenSize() int
	// Params returns the trainable parameters.
	Params() []*Matrix
	// CellType names the cell class for serialization.
	CellType() string

	// newBatchState returns zeroed state for `lanes` lanes and snapshots
	// the layer's weights.
	newBatchState(lanes int) batchState
	// growBatchState appends one zeroed lane.
	growBatchState(st batchState)
	// resetBatchLane zeroes one lane's recurrent state.
	resetBatchLane(st batchState, lane int)
	// stepBatch advances the listed lanes by one input each. xs is
	// len(lanes)×InSize row-major; the hidden outputs are written to hs
	// (len(lanes)×HiddenSize row-major). Lanes must be distinct.
	stepBatch(st batchState, lanes []int, xs, hs []float64, pool *Pool)
	// stepCost is one lane's fused step in multiply-add equivalents: what
	// stepBatch states to Pool.Range per lane.
	stepCost() int
}

// LSTM adapters to the Cell interface (the layer lives in layers.go; the
// fused batched step in batch.go).

// InSize returns the input width.
func (l *lstm) InSize() int { return l.In }

// HiddenSize returns the hidden width.
func (l *lstm) HiddenSize() int { return l.Hidden }

// CellType names the class.
func (l *lstm) CellType() string { return "lstm" }

var (
	_ Cell = (*lstm)(nil)
	_ Cell = (*gru)(nil)
	_ Cell = (*windowMLP)(nil)
)
