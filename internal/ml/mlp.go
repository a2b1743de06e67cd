package ml

import "mimicnet/internal/stats"

// windowMLP is a non-recurrent baseline trunk: it keeps a sliding buffer
// of the last Window inputs and maps the (zero-padded) flattened window
// through one tanh layer. It exists to quantify what the recurrent cells
// buy — the paper chose LSTMs precisely because per-packet behavior has
// long-range structure a feed-forward net over a short window misses.
type windowMLP struct {
	In, Hidden, Window int
	W                  *Matrix // (Hidden, In*Window)
	B                  *Matrix // (Hidden, 1)
}

// newWindowMLP allocates and initializes the baseline.
func newWindowMLP(in, hidden, window int, s *stats.Stream) *windowMLP {
	m := &windowMLP{
		In: in, Hidden: hidden, Window: window,
		W: newMatrix(hidden, in*window),
		B: newMatrix(hidden, 1),
	}
	m.W.InitXavier(s)
	return m
}

// InSize returns the input width.
func (m *windowMLP) InSize() int { return m.In }

// HiddenSize returns the hidden width.
func (m *windowMLP) HiddenSize() int { return m.Hidden }

// Params returns the trainable parameters.
func (m *windowMLP) Params() []*Matrix { return []*Matrix{m.W, m.B} }

// CellType names the class.
func (m *windowMLP) CellType() string { return "mlp" }

// stepCost is one step in multiply-add equivalents: the window product
// and the tanh pass.
func (m *windowMLP) stepCost() int {
	return m.Hidden*m.In*m.Window + m.Hidden*gateMulAdds
}

// mlpBatchState holds each lane's window of its last Window inputs —
// oldest first, zero rows in front until Window inputs have arrived, the
// flattened layout the layer's product reads — with the weights packed
// for the row kernel and the fused step's arguments. Like the recurrent
// states it is its own Pool.Range worker, and the trainer keeps one for
// its minibatch's windows.
type mlpBatchState struct {
	win                []float64 // lanes × In·Window
	in, hidden, window int
	w                  packedRows
	bias               []float64

	// one step's arguments, set by stepBatch before its Range call
	lanes  []int
	xs, hs []float64
	idx    []int // lanes × In·Window scratch: each lane's window column list
}

// newBatchState returns empty windows for `lanes` lanes and snapshots the
// layer's weights.
func (m *windowMLP) newBatchState(lanes int) batchState {
	s := &mlpBatchState{win: make([]float64, lanes*m.In*m.Window)}
	s.load(m)
	return s
}

// load snapshots m's weights into s, reusing its buffers: W packed for
// the row kernel, B copied.
func (s *mlpBatchState) load(m *windowMLP) {
	s.in, s.hidden, s.window = m.In, m.Hidden, m.Window
	s.w.pack(m.W)
	s.bias = append(s.bias[:0], m.B.Data...)
}

// size grows the per-step scratch for n lanes.
func (s *mlpBatchState) size(n int) {
	s.idx = growInts(s.idx, n*s.in*s.window)
}

// growBatchState appends one lane with an empty window.
func (m *windowMLP) growBatchState(st batchState) {
	s := st.(*mlpBatchState)
	s.win = append(s.win, make([]float64, m.In*m.Window)...)
}

// resetBatchLane empties one lane's window.
func (m *windowMLP) resetBatchLane(st batchState, lane int) {
	s := st.(*mlpBatchState)
	fw := m.In * m.Window
	zeroRange(s.win[lane*fw : (lane+1)*fw])
}

// stepBatch slides each listed lane's window by one input and evaluates
// the layer on it: h = tanh(W·window + b), the product on the row kernel.
func (m *windowMLP) stepBatch(st batchState, lanes []int, xs []float64, hs []float64, pool *Pool) {
	s := st.(*mlpBatchState)
	if len(lanes) == 0 {
		return
	}
	s.size(len(lanes))
	s.lanes, s.xs, s.hs = lanes, xs, hs
	pool.Range(len(lanes), m.stepCost(), s)
}

// RunRange steps lanes[lo:hi]; each lane touches only its own window and
// output row.
func (s *mlpBatchState) RunRange(lo, hi int) {
	In, H, fw := s.in, s.hidden, s.in*s.window
	for a := lo; a < hi; a++ {
		lane := s.lanes[a]
		win := s.win[lane*fw : (lane+1)*fw]
		copy(win, win[In:]) // drop the oldest row
		copy(win[fw-In:], s.xs[a*In:(a+1)*In])
		s.evalLane(a, win, s.hs[a*H:(a+1)*H])
	}
}

// evalLane sets out = tanh(W·win + b) on scratch row a: the window
// product (listed walk), the bias and the tanh pass.
func (s *mlpBatchState) evalLane(a int, win, out []float64) {
	fw := s.in * s.window
	s.w.mulLane(win, out, s.idx[a*fw:(a+1)*fw])
	for j := range out {
		out[j] += s.bias[j]
	}
	tanhLanes(out, out, useWideGates)
}
