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
// lstmBatchState it is its own Pool.Range worker.
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
// snapshots the layer's weights (Wx and Wh packed, B copied).
func (g *gru) newBatchState(lanes int) batchState {
	return &gruBatchState{
		h:      make([]float64, lanes*g.Hidden),
		hidden: g.Hidden,
		in:     g.In,
		wx:     packRows(g.Wx),
		wh:     packRows(g.Wh),
		bias:   append([]float64(nil), g.B.Data...),
	}
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
	H := g.Hidden
	s.ax = growFloats(s.ax, n*3*H)
	s.ah = growFloats(s.ah, n*2*H)
	s.rh = growFloats(s.rh, n*H)
	s.z = growFloats(s.z, n*H)
	s.idx = growInts(s.idx, n*g.In)
	s.lanes, s.xs, s.hs = lanes, xs, hs
	pool.Range(n, g.stepCost(), s)
}

// stepCost is one lane's fused step in multiply-add equivalents: the
// products and three gate passes.
func (g *gru) stepCost() int {
	return 3*g.Hidden*(g.In+g.Hidden) + 3*g.Hidden*gateMulAdds
}

// RunRange steps lanes[lo:hi]; chunks touch disjoint rows.
func (s *gruBatchState) RunRange(lo, hi int) {
	H, In := s.hidden, s.in
	bias, wide := s.bias[:3*H], useWideGates
	for a := lo; a < hi; a++ {
		lane := s.lanes[a]
		hPrev := s.h[lane*H : (lane+1)*H]
		ax := s.ax[a*3*H : (a+1)*3*H]
		ah := s.ah[a*2*H : (a+1)*2*H]
		rh := s.rh[a*H : (a+1)*H]
		z := s.z[a*H : (a+1)*H]
		s.wx.mulLane(0, s.xs[a*In:(a+1)*In], ax, s.idx[a*In:(a+1)*In])
		s.wh.mulDense(0, hPrev, ah)
		// Pre-activations hoisted so the sigmoid passes run over
		// contiguous ranges (4 lanes per instruction when the wide gate
		// kernels are live); the reference's ax + ah + bias association.
		for j := 0; j < 2*H; j++ {
			ax[j] = ax[j] + ah[j] + bias[j]
		}
		sigmoidLanes(z, ax[:H], wide)
		sigmoidLanes(rh, ax[H:2*H], wide)
		for j := 0; j < H; j++ {
			rh[j] = rh[j] * hPrev[j] // r ⊙ hPrev
		}
		// The candidate chain is dotAcc(ax+bias, row, r⊙h): it starts at
		// ax+bias, which can be -0, where skipping a ±0 term is not a
		// no-op (-0 + +0 = +0). So it goes through accLane, which takes
		// every term, not mulLane's zero-skip.
		hRow := s.hs[a*H : (a+1)*H]
		for j := 0; j < H; j++ {
			hRow[j] = ax[2*H+j] + bias[2*H+j]
		}
		s.wh.accLane(2*H, rh, hRow)
		tanhLanes(hRow, hRow, wide)
		for j := 0; j < H; j++ {
			hRow[j] = (1-z[j])*hPrev[j] + z[j]*hRow[j]
		}
		copy(hPrev, hRow)
	}
}
