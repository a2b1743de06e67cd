package ml

import "mimicnet/internal/stats"

// gru is a gated recurrent unit layer — an alternative trunk class to the
// paper's default LSTM. Gate layout within the stacked 3H dimension is
// [update z, reset r, candidate].
type gru struct {
	In, Hidden int
	Wx         *Matrix // (3H, In)
	Wh         *Matrix // (3H, H)
	B          *Matrix // (3H, 1)
}

// newGRU allocates and initializes a GRU layer.
func newGRU(in, hidden int, s *stats.Stream) *gru {
	g := &gru{
		In: in, Hidden: hidden,
		Wx: newMatrix(3*hidden, in),
		Wh: newMatrix(3*hidden, hidden),
		B:  newMatrix(3*hidden, 1),
	}
	g.Wx.InitXavier(s)
	g.Wh.InitXavier(s)
	return g
}

// InSize returns the input width.
func (g *gru) InSize() int { return g.In }

// HiddenSize returns the hidden width.
func (g *gru) HiddenSize() int { return g.Hidden }

// Params returns the trainable parameters.
func (g *gru) Params() []*Matrix { return []*Matrix{g.Wx, g.Wh, g.B} }

// CellType names the class.
func (g *gru) CellType() string { return "gru" }

// gruBatchState is the recurrent state of `lanes` independent GRU
// streams (lanes × H dense), the layer's weights packed for the row
// kernel, and the fused step's arguments and scratch. Like
// lstmBatchState it is its own Pool.Range worker, and a trainer layer
// keeps one for its minibatch's lanes.
type gruBatchState struct {
	h          []float64
	hidden, in int
	wx, wh     packedRows
	bias       []float64

	// one step's arguments, set by stepBatch before its Range call
	lanes         []int
	xs, hs        []float64
	ax, ah, rh, z []float64 // per-lane scratch (3H, 2H, H, H wide)
	idx           []int     // per-lane input column list (In wide)
}

// newBatchState returns zeroed state for `lanes` GRU lanes and
// snapshots the layer's weights.
func (g *gru) newBatchState(lanes int) batchState {
	s := &gruBatchState{h: make([]float64, lanes*g.Hidden)}
	s.load(g)
	return s
}

// load snapshots g's weights into s, reusing its buffers: Wx and Wh
// packed for the row kernel, B copied.
func (s *gruBatchState) load(g *gru) {
	s.hidden, s.in = g.Hidden, g.In
	s.wx.pack(g.Wx)
	s.wh.pack(g.Wh)
	s.bias = append(s.bias[:0], g.B.Data...)
}

// size grows the per-step scratch for n lanes.
func (s *gruBatchState) size(n int) {
	H := s.hidden
	s.ax = growFloats(s.ax, n*3*H)
	s.ah = growFloats(s.ah, n*2*H)
	s.rh = growFloats(s.rh, n*H)
	s.z = growFloats(s.z, n*H)
	s.idx = growInts(s.idx, n*s.in)
}

// growBatchState appends one zeroed lane.
func (g *gru) growBatchState(st batchState) {
	s := st.(*gruBatchState)
	s.h = append(s.h, make([]float64, g.Hidden)...)
}

// resetBatchLane zeroes one lane's hidden state.
func (g *gru) resetBatchLane(st batchState, lane int) {
	s := st.(*gruBatchState)
	zeroRange(s.h[lane*g.Hidden : (lane+1)*g.Hidden])
}

// stepBatch advances the listed lanes through one fused GRU step: per
// lane, the input and z/r recurrent products, the gates, and then the
// candidate path, which must follow the reset gate:
//
//	z = σ(Wz x + Uz h + bz)
//	r = σ(Wr x + Ur h + br)
//	ĥ = tanh(Wc x + Uc (r⊙h) + bc)
//	h' = (1−z)⊙h + z⊙ĥ
//
// All per-element accumulation orders are the per-packet reference
// step's (dot/dotAcc on the same operand order), so outputs are
// bit-identical to it.
func (g *gru) stepBatch(st batchState, lanes []int, xs []float64, hs []float64, pool *Pool) {
	s := st.(*gruBatchState)
	n := len(lanes)
	if n == 0 {
		return
	}
	s.size(n)
	s.lanes, s.xs, s.hs = lanes, xs, hs
	pool.Range(n, g.stepCost(), s)
}

// stepCost is one lane's fused step in multiply-add equivalents: the
// products and three gate passes.
func (g *gru) stepCost() int {
	return 3*g.Hidden*(g.In+g.Hidden) + 3*g.Hidden*gateMulAdds
}

// RunRange steps lanes[lo:hi]; chunks touch disjoint rows. r is computed
// in place into the r⊙h scratch and the candidate into the output row.
func (s *gruBatchState) RunRange(lo, hi int) {
	H, In := s.hidden, s.in
	for a := lo; a < hi; a++ {
		rh, hRow := s.rh[a*H:(a+1)*H], s.hs[a*H:(a+1)*H]
		s.stepLane(a, s.lanes[a], s.xs[a*In:(a+1)*In], s.z[a*H:(a+1)*H], rh, rh, hRow, hRow)
	}
}

// stepLane advances lane `lane` by the input x, on scratch row a: the
// products Wx·x (listed walk) and the z/r rows of Wh·hPrev (strided),
// the z and r gates, the candidate ĥ = tanh(dotAcc(ax+b, Uc row, r⊙h)) —
// the reference association, its product strided from ax+b, which is a
// sum from +0 and so never -0 (rowkernel.go) — and the state update.
// The activations land in z, r, rh (r⊙h) and cand (ĥ), hNew in hOut and
// in the lane's h. A caller that keeps no activations may pass r as rh
// and hOut as cand: each is written element for element from the other.
func (s *gruBatchState) stepLane(a, lane int, x, z, r, rh, cand, hOut []float64) {
	H, wide := s.hidden, useWideGates
	bias := s.bias[:3*H]
	hPrev := s.h[lane*H : (lane+1)*H]
	ax := s.ax[a*3*H : (a+1)*3*H]
	ah := s.ah[a*2*H : (a+1)*2*H]
	s.wx.mulLane(0, x, ax, s.idx[a*s.in:(a+1)*s.in])
	zeroRange(ah)
	s.wh.accStrided(0, hPrev, 1, H, ah)
	// Pre-activations hoisted so the sigmoid passes run over contiguous
	// ranges (4 lanes per instruction when the wide gate kernels are
	// live); the reference's ax + ah + bias association.
	for j := 0; j < 2*H; j++ {
		ax[j] = ax[j] + ah[j] + bias[j]
	}
	z, r, rh, cand, hOut = z[:H], r[:H], rh[:H], cand[:H], hOut[:H]
	sigmoidLanes(z, ax[:H], wide)
	sigmoidLanes(r, ax[H:2*H], wide)
	for j := range rh {
		rh[j] = r[j] * hPrev[j]
	}
	for j := range cand {
		cand[j] = ax[2*H+j] + bias[2*H+j]
	}
	s.wh.accStrided(2*H, rh, 1, H, cand)
	tanhLanes(cand, cand, wide)
	for j := range hOut {
		hOut[j] = (1-z[j])*hPrev[j] + z[j]*cand[j]
	}
	copy(hPrev, hOut)
}
