package ml

import (
	"fmt"
	"math"
)

// The per-packet and per-sample reference path. Production runs one
// inference path — the lane bank (BatchedStatefulModel) — and one trainer,
// the minibatch trainer at any width, 1 included. This file keeps the
// path they replaced as the oracle the parity tests hold them to: each
// cell's scalar step and BPTT backward, the window forward with its
// backward pass, the stateful per-packet runner, and the scalar
// per-sample training step. Its arithmetic is the reference every fused
// kernel reproduces bit for bit (inference) or to float reassociation
// (training gradients; TestBatchedGradMatchesSequential).

// Vector and matrix primitives of the scalar path.

// Zeros returns a zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// AddTo accumulates src into dst.
func AddTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// MulVec computes out = M * x (out len Rows, x len Cols). out may be nil.
func (m *Matrix) MulVec(x, out []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("ml: MulVec dim mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	if out == nil {
		out = make([]float64, m.Rows)
	}
	for r := 0; r < m.Rows; r++ {
		out[r] = dot(m.Data[r*m.Cols:(r+1)*m.Cols], x)
	}
	return out
}

// AddOuterGrad accumulates the outer product dy ⊗ x into the gradient:
// Grad[r][c] += dy[r] * x[c]. This is the weight gradient of y = Mx.
func (m *Matrix) AddOuterGrad(dy, x []float64) {
	for r := 0; r < m.Rows; r++ {
		g := m.Grad[r*m.Cols : (r+1)*m.Cols]
		d := dy[r]
		if d == 0 {
			continue
		}
		for c := range g {
			g[c] += d * x[c]
		}
	}
}

// MulVecT computes out += Mᵀ * dy (backprop of y = Mx into x).
func (m *Matrix) MulVecT(dy, out []float64) {
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		d := dy[r]
		if d == 0 {
			continue
		}
		for c, v := range row {
			out[c] += v * d
		}
	}
}

// CellState is a cell's opaque recurrent state.
type CellState interface{}

// CellCache is a cell's opaque per-step activation record for BPTT.
type CellCache interface{}

// scalarCell is a trunk cell's per-packet reference API.
type scalarCell interface {
	Cell
	// FreshState returns a zeroed recurrent state.
	FreshState() CellState
	// StepState advances the state by one input and returns the hidden
	// output; when train is true it also returns a cache for backward.
	StepState(st CellState, x []float64, train bool) ([]float64, CellCache)
	// StepBackward consumes one step's cache with the gradients flowing
	// into its hidden output (dh) and carried state (dcarry; nil when the
	// cell has no carry), accumulating parameter gradients and returning
	// gradients for the previous step and input.
	StepBackward(cache CellCache, dh, dcarry []float64) (dhPrev, dcarryPrev, dx []float64)
}

// scalarTrunk views a model's trunk through the reference API.
func scalarTrunk(cells []Cell) []scalarCell {
	out := make([]scalarCell, len(cells))
	for i, c := range cells {
		out[i] = c.(scalarCell)
	}
	return out
}

// FreshState returns a zeroed LSTM state.
func (l *lstm) FreshState() CellState { return l.NewState() }

// StepState adapts Step to the reference API.
func (l *lstm) StepState(st CellState, x []float64, train bool) ([]float64, CellCache) {
	state := st.(*LSTMState)
	var cache *lstmCache
	if train {
		cache = &lstmCache{}
	}
	h := l.Step(state, x, cache)
	if cache == nil {
		return h, nil
	}
	return h, cache
}

// StepBackward adapts stepBackward to the reference API. The LSTM's
// carry is its cell state.
func (l *lstm) StepBackward(cache CellCache, dh, dcarry []float64) (dhPrev, dcarryPrev, dx []float64) {
	if dcarry == nil {
		dcarry = Zeros(l.Hidden)
	}
	return l.stepBackward(cache.(*lstmCache), dh, dcarry)
}

// Forward computes the layer output.
func (l *Linear) Forward(x []float64) []float64 {
	y := l.W.MulVec(x, nil)
	for i := range y {
		y[i] += l.B.Data[i]
	}
	return y
}

// Backward accumulates parameter gradients for dy and returns dx.
func (l *Linear) Backward(x, dy []float64) []float64 {
	l.W.AddOuterGrad(dy, x)
	for i, d := range dy {
		l.B.Grad[i] += d
	}
	dx := Zeros(len(x))
	l.W.MulVecT(dy, dx)
	return dx
}

// LSTMState is the recurrent state (hidden, cell).
type LSTMState struct {
	H, C []float64
}

// NewState returns a zero state.
func (l *lstm) NewState() *LSTMState {
	return &LSTMState{H: Zeros(l.Hidden), C: Zeros(l.Hidden)}
}

// lstmCache stores per-step activations for BPTT.
type lstmCache struct {
	x            []float64
	hPrev, cPrev []float64
	i, f, g, o   []float64
	c, h         []float64
	tanhC        []float64
}

// Step advances the state by one input and returns the new hidden vector.
// When cache is non-nil, activations needed for Backward are recorded.
func (l *lstm) Step(st *LSTMState, x []float64, cache *lstmCache) []float64 {
	H := l.Hidden
	z := l.Wx.MulVec(x, nil)
	zh := l.Wh.MulVec(st.H, nil)
	for i := range z {
		z[i] += zh[i] + l.B.Data[i]
	}
	i_, f_, g_, o_ := Zeros(H), Zeros(H), Zeros(H), Zeros(H)
	cNew, hNew, tanhC := Zeros(H), Zeros(H), Zeros(H)
	for j := 0; j < H; j++ {
		i_[j] = sigmoid(z[j])
		f_[j] = sigmoid(z[H+j])
		g_[j] = math.Tanh(z[2*H+j])
		o_[j] = sigmoid(z[3*H+j])
		cNew[j] = f_[j]*st.C[j] + i_[j]*g_[j]
		tanhC[j] = math.Tanh(cNew[j])
		hNew[j] = o_[j] * tanhC[j]
	}
	if cache != nil {
		cache.x = append([]float64(nil), x...)
		cache.hPrev = append([]float64(nil), st.H...)
		cache.cPrev = append([]float64(nil), st.C...)
		cache.i, cache.f, cache.g, cache.o = i_, f_, g_, o_
		cache.c, cache.h, cache.tanhC = cNew, hNew, tanhC
	}
	st.C = cNew
	st.H = hNew
	return hNew
}

// stepBackward backpropagates one step: given dh/dc flowing into this
// step's outputs, it accumulates parameter gradients and returns
// gradients for the previous hidden/cell state and the input.
func (l *lstm) stepBackward(cache *lstmCache, dh, dc []float64) (dhPrev, dcPrev, dx []float64) {
	H := l.Hidden
	dz := Zeros(4 * H)
	dcTotal := Zeros(H)
	for j := 0; j < H; j++ {
		// h = o * tanh(c)
		do := dh[j] * cache.tanhC[j]
		dcTotal[j] = dc[j] + dh[j]*cache.o[j]*dTanh(cache.tanhC[j])
		// c = f*cPrev + i*g
		di := dcTotal[j] * cache.g[j]
		df := dcTotal[j] * cache.cPrev[j]
		dg := dcTotal[j] * cache.i[j]
		dz[j] = di * dSigmoid(cache.i[j])
		dz[H+j] = df * dSigmoid(cache.f[j])
		dz[2*H+j] = dg * dTanh(cache.g[j])
		dz[3*H+j] = do * dSigmoid(cache.o[j])
	}
	l.Wx.AddOuterGrad(dz, cache.x)
	l.Wh.AddOuterGrad(dz, cache.hPrev)
	for i, d := range dz {
		l.B.Grad[i] += d
	}
	dx = Zeros(l.In)
	l.Wx.MulVecT(dz, dx)
	dhPrev = Zeros(H)
	l.Wh.MulVecT(dz, dhPrev)
	dcPrev = Zeros(H)
	for j := 0; j < H; j++ {
		dcPrev[j] = dcTotal[j] * cache.f[j]
	}
	return dhPrev, dcPrev, dx
}

// Trace is the recorded forward pass of a window through a stack of
// trunk cells, ready for BPTT.
type Trace struct {
	layers  []scalarCell
	caches  [][]CellCache // [layer][step]
	Outputs []float64     // final hidden of the top layer
}

// ForwardWindow runs a window (steps × features) through stacked layers
// from a zero state, recording caches when train is true.
func ForwardWindow(cells []Cell, window [][]float64, train bool) *Trace {
	layers := scalarTrunk(cells)
	tr := &Trace{layers: layers}
	if train {
		tr.caches = make([][]CellCache, len(layers))
		for i := range tr.caches {
			tr.caches[i] = make([]CellCache, len(window))
		}
	}
	states := make([]CellState, len(layers))
	for i, l := range layers {
		states[i] = l.FreshState()
	}
	var h []float64
	for step, x := range window {
		h = x
		for li, l := range layers {
			var cache CellCache
			h, cache = l.StepState(states[li], h, train)
			if train {
				tr.caches[li][step] = cache
			}
		}
	}
	tr.Outputs = h
	return tr
}

// Backward runs BPTT given the gradient at the final top-layer hidden
// output and accumulates parameter gradients.
func (tr *Trace) Backward(dOut []float64) {
	steps := len(tr.caches[0])
	nl := len(tr.layers)
	// dh and the carry gradient (cell state for LSTMs, nil for others)
	// flowing backward per layer.
	dh := make([][]float64, nl)
	dc := make([][]float64, nl)
	for i, l := range tr.layers {
		dh[i] = Zeros(l.HiddenSize())
	}
	copy(dh[nl-1], dOut)
	for step := steps - 1; step >= 0; step-- {
		// Top to bottom: each layer's dx feeds the layer below's dh.
		var dxDown []float64
		for li := nl - 1; li >= 0; li-- {
			if dxDown != nil {
				AddTo(dh[li], dxDown)
			}
			dhPrev, dcPrev, dx := tr.layers[li].StepBackward(tr.caches[li][step], dh[li], dc[li])
			dh[li], dc[li] = dhPrev, dcPrev
			dxDown = dx
		}
	}
}

// StatefulRunner performs streaming inference: it keeps per-layer cell
// state across calls, which is how Mimic models see a continuous packet
// stream (and how feeder packets advance the hidden state without
// emitting outputs, paper §6).
type StatefulRunner struct {
	layers []scalarCell
	states []CellState
}

// NewStatefulRunner initializes zero states for the stack.
func NewStatefulRunner(cells []Cell) *StatefulRunner {
	layers := scalarTrunk(cells)
	r := &StatefulRunner{layers: layers}
	r.states = make([]CellState, len(layers))
	for i, l := range layers {
		r.states[i] = l.FreshState()
	}
	return r
}

// Step feeds one feature vector and returns the top-layer hidden state.
func (r *StatefulRunner) Step(x []float64) []float64 {
	h := x
	for i, l := range r.layers {
		h, _ = l.StepState(r.states[i], h, false)
	}
	return h
}

// Reset zeroes the recurrent state.
func (r *StatefulRunner) Reset() {
	for i, l := range r.layers {
		r.states[i] = l.FreshState()
	}
}

// gruState is the recurrent hidden vector.
type gruState struct{ h []float64 }

// FreshState returns a zeroed state.
func (g *gru) FreshState() CellState { return &gruState{h: Zeros(g.Hidden)} }

type gruCache struct {
	x, hPrev   []float64
	z, r, hHat []float64
}

// StepState computes
//
//	z = σ(Wz x + Uz h + bz)
//	r = σ(Wr x + Ur h + br)
//	ĥ = tanh(Wc x + Uc (r⊙h) + bc)
//	h' = (1−z)⊙h + z⊙ĥ
func (g *gru) StepState(st CellState, x []float64, train bool) ([]float64, CellCache) {
	state := st.(*gruState)
	H := g.Hidden
	ax := g.Wx.MulVec(x, nil)

	// Gate pre-activations from the previous hidden state: z and r use h
	// directly; the candidate uses r⊙h, so it is computed after r.
	ah := Zeros(3 * H)
	for row := 0; row < 2*H; row++ {
		ah[row] = dot(g.Wh.Data[row*H:(row+1)*H], state.h)
	}
	z, r := Zeros(H), Zeros(H)
	for j := 0; j < H; j++ {
		z[j] = sigmoid(ax[j] + ah[j] + g.B.Data[j])
		r[j] = sigmoid(ax[H+j] + ah[H+j] + g.B.Data[H+j])
	}
	rh := Zeros(H)
	for j := 0; j < H; j++ {
		rh[j] = r[j] * state.h[j]
	}
	hHat := Zeros(H)
	for j := 0; j < H; j++ {
		row := g.Wh.Data[(2*H+j)*H : (2*H+j+1)*H]
		hHat[j] = math.Tanh(dotAcc(ax[2*H+j]+g.B.Data[2*H+j], row, rh))
	}
	hNew := Zeros(H)
	for j := 0; j < H; j++ {
		hNew[j] = (1-z[j])*state.h[j] + z[j]*hHat[j]
	}
	var cache CellCache
	if train {
		cache = &gruCache{
			x:     append([]float64(nil), x...),
			hPrev: append([]float64(nil), state.h...),
			z:     z, r: r, hHat: hHat,
		}
	}
	state.h = hNew
	return hNew, cache
}

// StepBackward backpropagates one GRU step. The GRU has no carry channel
// (dcarry is ignored and returned nil).
func (g *gru) StepBackward(cache CellCache, dh, _ []float64) (dhPrev, dcarryPrev, dx []float64) {
	c := cache.(*gruCache)
	H := g.Hidden
	dhPrev = Zeros(H)
	da := Zeros(3 * H) // gradients at the three pre-activations

	dHHat := Zeros(H)
	for j := 0; j < H; j++ {
		// h' = (1-z) h + z ĥ
		dz := dh[j] * (c.hHat[j] - c.hPrev[j])
		dHHat[j] = dh[j] * c.z[j]
		dhPrev[j] += dh[j] * (1 - c.z[j])
		da[j] = dz * dSigmoid(c.z[j])
		da[2*H+j] = dHHat[j] * dTanh(c.hHat[j])
	}
	// Candidate path: a_c = Wc x + Uc (r⊙h) + bc.
	drh := Zeros(H)
	for j := 0; j < H; j++ {
		row := g.Wh.Data[(2*H+j)*H : (2*H+j+1)*H]
		d := da[2*H+j]
		if d == 0 {
			continue
		}
		for cIdx, v := range row {
			drh[cIdx] += v * d
		}
	}
	for j := 0; j < H; j++ {
		dr := drh[j] * c.hPrev[j]
		dhPrev[j] += drh[j] * c.r[j]
		da[H+j] = dr * dSigmoid(c.r[j])
	}
	// Parameter gradients. Wh rows for z and r consume hPrev; the
	// candidate rows consume r⊙hPrev.
	g.Wx.AddOuterGrad(da, c.x)
	rh := Zeros(H)
	for j := 0; j < H; j++ {
		rh[j] = c.r[j] * c.hPrev[j]
	}
	for row := 0; row < 3*H; row++ {
		d := da[row]
		if d == 0 {
			continue
		}
		grad := g.Wh.Grad[row*H : (row+1)*H]
		src := c.hPrev
		if row >= 2*H {
			src = rh
		}
		for cIdx := range grad {
			grad[cIdx] += d * src[cIdx]
		}
		g.B.Grad[row] += d
	}
	// dhPrev contributions through the z/r gate pre-activations.
	for row := 0; row < 2*H; row++ {
		d := da[row]
		if d == 0 {
			continue
		}
		w := g.Wh.Data[row*H : (row+1)*H]
		for cIdx, v := range w {
			dhPrev[cIdx] += v * d
		}
	}
	dx = Zeros(g.In)
	g.Wx.MulVecT(da, dx)
	return dhPrev, nil, dx
}

// mlpState is the ring buffer of recent inputs (oldest first).
type mlpState struct{ history [][]float64 }

// FreshState returns an empty input buffer.
func (m *windowMLP) FreshState() CellState { return &mlpState{} }

type mlpCache struct {
	flat []float64
	h    []float64
}

func (m *windowMLP) flatten(history [][]float64) []float64 {
	flat := Zeros(m.In * m.Window)
	pad := m.Window - len(history)
	for i, row := range history {
		copy(flat[(pad+i)*m.In:], row)
	}
	return flat
}

// StepState appends x to the window buffer and evaluates the layer.
func (m *windowMLP) StepState(st CellState, x []float64, train bool) ([]float64, CellCache) {
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

// StepBackward backpropagates one evaluation. The MLP has no recurrent
// path, so dhPrev is zero: gradient reaches earlier steps only through
// the model heads (which read the final step), which is exactly the
// baseline's limitation.
func (m *windowMLP) StepBackward(cache CellCache, dh, _ []float64) (dhPrev, dcarryPrev, dx []float64) {
	c := cache.(*mlpCache)
	da := Zeros(m.Hidden)
	for j := range da {
		da[j] = dh[j] * dTanh(c.h[j])
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

func (m *Model) heads(h []float64) Prediction {
	return Prediction{
		Latency: sigmoid(m.LatHead.Forward(h)[0]),
		PDrop:   sigmoid(m.DropHead.Forward(h)[0]),
		PECN:    sigmoid(m.ECNHead.Forward(h)[0]),
	}
}

// forwardOracle is the reference Model.Forward: the window through
// ForwardWindow from zero state, then the heads.
func (m *Model) forwardOracle(window [][]float64) Prediction {
	return m.heads(ForwardWindow(m.Trunk, window, false).Outputs)
}

// trainStepWindow runs forward+backward for one sample — a window of
// row aliases gathered from the source plus the targets of its final
// packet — and returns the loss.
func (m *Model) trainStepWindow(window [][]float64, latency float64, dropped, ecn bool) float64 {
	tr := ForwardWindow(m.Trunk, window, true)
	h := tr.Outputs
	pred := m.heads(h)

	latTarget := latency
	dropTarget, ecnTarget := 0.0, 0.0
	if dropped {
		dropTarget = 1
	}
	if ecn {
		ecnTarget = 1
	}

	latLoss, dLat := m.Cfg.LatLoss.Eval(pred.Latency, latTarget, m.Cfg.HuberDelta)
	var dropLoss, dDrop float64
	if m.Cfg.DropWeight > 0 {
		dropLoss, dDrop = wbce(pred.PDrop, dropTarget, m.Cfg.DropWeight)
	} else {
		dropLoss, dDrop = bce(pred.PDrop, dropTarget)
	}
	ecnLoss, dECN := bce(pred.PECN, ecnTarget)

	total := m.Cfg.LatWeight*latLoss + m.Cfg.DropLossW*dropLoss + m.Cfg.ECNLossW*ecnLoss

	// Backprop through sigmoid heads into the shared hidden state.
	dLatLogit := m.Cfg.LatWeight * dLat * dSigmoid(pred.Latency)
	dDropLogit := m.Cfg.DropLossW * dDrop * dSigmoid(pred.PDrop)
	dECNLogit := m.Cfg.ECNLossW * dECN * dSigmoid(pred.PECN)

	dh := Zeros(len(h))
	AddTo(dh, m.LatHead.Backward(h, []float64{dLatLogit}))
	AddTo(dh, m.DropHead.Backward(h, []float64{dDropLogit}))
	AddTo(dh, m.ECNHead.Backward(h, []float64{dECNLogit}))
	tr.Backward(dh)
	return total
}

// StatefulModel wraps a trained model for streaming per-packet inference
// with persistent hidden state, as embedded in Mimic clusters.
type StatefulModel struct {
	model  *Model
	runner *StatefulRunner
	// Steps counts inference steps for FLOPs accounting.
	Steps uint64
}

// NewStatefulModel builds a streaming wrapper around a trained model.
func NewStatefulModel(m *Model) *StatefulModel {
	return &StatefulModel{model: m, runner: NewStatefulRunner(m.Trunk)}
}

// Predict feeds one packet's features and returns the prediction.
func (s *StatefulModel) Predict(x []float64) Prediction {
	s.Steps++
	h := s.runner.Step(x)
	return s.model.heads(h)
}

// Advance updates hidden state for a feeder packet and discards the
// output (paper §6: feeders update internal models' state as if the
// packets were routed, without creating or sending them).
func (s *StatefulModel) Advance(x []float64) {
	s.Steps++
	s.runner.Step(x)
}

// Reset clears the recurrent state.
func (s *StatefulModel) Reset() { s.runner.Reset() }

// Model returns the wrapped model.
func (s *StatefulModel) Model() *Model { return s.model }

// PredictLane advances one bank lane and returns its prediction (a batch
// of one; bit-identical to StatefulModel.Predict on the same stream).
func (b *BatchedStatefulModel) PredictLane(lane int, x []float64) Prediction {
	var (
		lanes = [1]int{lane}
		xs    = [1][]float64{x}
		out   [1]Prediction
	)
	b.StepLanes(lanes[:], xs[:], nil, out[:])
	return out[0]
}
