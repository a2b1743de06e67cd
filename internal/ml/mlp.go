package ml

import (
	"math"

	"mimicnet/internal/stats"
)

// WindowMLP is a non-recurrent baseline trunk: it keeps a sliding buffer
// of the last Window inputs and maps the (zero-padded) flattened window
// through one tanh layer. It exists to quantify what the recurrent cells
// buy — the paper chose LSTMs precisely because per-packet behavior has
// long-range structure a feed-forward net over a short window misses.
type WindowMLP struct {
	In, Hidden, Window int
	W                  *Matrix // (Hidden, In*Window)
	B                  *Matrix // (Hidden, 1)
}

// NewWindowMLP allocates and initializes the baseline.
func NewWindowMLP(in, hidden, window int, s *stats.Stream) *WindowMLP {
	m := &WindowMLP{
		In: in, Hidden: hidden, Window: window,
		W: NewMatrix(hidden, in*window),
		B: NewMatrix(hidden, 1),
	}
	m.W.InitXavier(s)
	return m
}

// InSize returns the input width.
func (m *WindowMLP) InSize() int { return m.In }

// HiddenSize returns the hidden width.
func (m *WindowMLP) HiddenSize() int { return m.Hidden }

// Params returns the trainable parameters.
func (m *WindowMLP) Params() []*Matrix { return []*Matrix{m.W, m.B} }

// CellType names the class.
func (m *WindowMLP) CellType() string { return "mlp" }

// mlpState is the ring buffer of recent inputs (oldest first).
type mlpState struct{ history [][]float64 }

// FreshState returns an empty input buffer.
func (m *WindowMLP) FreshState() CellState { return &mlpState{} }

type mlpCache struct {
	flat []float64
	h    []float64
}

func (m *WindowMLP) flatten(history [][]float64) []float64 {
	flat := Zeros(m.In * m.Window)
	pad := m.Window - len(history)
	for i, row := range history {
		copy(flat[(pad+i)*m.In:], row)
	}
	return flat
}

// StepState appends x to the window buffer and evaluates the layer.
func (m *WindowMLP) StepState(st CellState, x []float64, train bool) ([]float64, CellCache) {
	state := st.(*mlpState)
	state.history = append(state.history, append([]float64(nil), x...))
	if len(state.history) > m.Window {
		state.history = state.history[1:]
	}
	flat := m.flatten(state.history)
	h := m.W.MulVec(flat, nil)
	for i := range h {
		h[i] = math.Tanh(h[i] + m.B.Data[i])
	}
	if !train {
		return h, nil
	}
	return h, &mlpCache{flat: flat, h: h}
}

// stepCost is one step in multiply-add equivalents: the window product
// and the tanh pass.
func (m *WindowMLP) stepCost() int {
	return m.Hidden*m.In*m.Window + m.Hidden*gateMulAdds
}

// StepBackward backpropagates one evaluation. The MLP has no recurrent
// path, so dhPrev is zero: gradient reaches earlier steps only through
// the model heads (which read the final step), which is exactly the
// baseline's limitation.
func (m *WindowMLP) StepBackward(cache CellCache, dh, _ []float64) (dhPrev, dcarryPrev, dx []float64) {
	c := cache.(*mlpCache)
	da := Zeros(m.Hidden)
	for j := range da {
		da[j] = dh[j] * DTanh(c.h[j])
	}
	m.W.AddOuterGrad(da, c.flat)
	for j, d := range da {
		m.B.Grad[j] += d
	}
	dflat := Zeros(len(c.flat))
	m.W.MulVecT(da, dflat)
	// dx is the gradient w.r.t. the newest window slot.
	dx = dflat[len(dflat)-m.In:]
	return Zeros(m.Hidden), nil, dx
}

var _ Cell = (*WindowMLP)(nil)
