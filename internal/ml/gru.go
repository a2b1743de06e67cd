package ml

import (
	"math"

	"mimicnet/internal/stats"
)

// GRU is a gated recurrent unit layer — an alternative trunk class to the
// paper's default LSTM. Gate layout within the stacked 3H dimension is
// [update z, reset r, candidate].
type GRU struct {
	In, Hidden int
	Wx         *Matrix // (3H, In)
	Wh         *Matrix // (3H, H)
	B          *Matrix // (3H, 1)
}

// NewGRU allocates and initializes a GRU layer.
func NewGRU(in, hidden int, s *stats.Stream) *GRU {
	g := &GRU{
		In: in, Hidden: hidden,
		Wx: NewMatrix(3*hidden, in),
		Wh: NewMatrix(3*hidden, hidden),
		B:  NewMatrix(3*hidden, 1),
	}
	g.Wx.InitXavier(s)
	g.Wh.InitXavier(s)
	return g
}

// InSize returns the input width.
func (g *GRU) InSize() int { return g.In }

// HiddenSize returns the hidden width.
func (g *GRU) HiddenSize() int { return g.Hidden }

// Params returns the trainable parameters.
func (g *GRU) Params() []*Matrix { return []*Matrix{g.Wx, g.Wh, g.B} }

// CellType names the class.
func (g *GRU) CellType() string { return "gru" }

// gruState is the recurrent hidden vector.
type gruState struct{ h []float64 }

// FreshState returns a zeroed state.
func (g *GRU) FreshState() CellState { return &gruState{h: Zeros(g.Hidden)} }

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
func (g *GRU) StepState(st CellState, x []float64, train bool) ([]float64, CellCache) {
	state := st.(*gruState)
	H := g.Hidden
	ax := g.Wx.MulVec(x, nil)

	// Gate pre-activations from the previous hidden state: z and r use h
	// directly; the candidate uses r⊙h, so it is computed after r.
	ah := Zeros(3 * H)
	for row := 0; row < 2*H; row++ {
		ah[row] = Dot(g.Wh.Data[row*H:(row+1)*H], state.h)
	}
	z, r := Zeros(H), Zeros(H)
	for j := 0; j < H; j++ {
		z[j] = Sigmoid(ax[j] + ah[j] + g.B.Data[j])
		r[j] = Sigmoid(ax[H+j] + ah[H+j] + g.B.Data[H+j])
	}
	rh := Zeros(H)
	for j := 0; j < H; j++ {
		rh[j] = r[j] * state.h[j]
	}
	hHat := Zeros(H)
	for j := 0; j < H; j++ {
		row := g.Wh.Data[(2*H+j)*H : (2*H+j+1)*H]
		hHat[j] = math.Tanh(DotAcc(ax[2*H+j]+g.B.Data[2*H+j], row, rh))
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
func (g *GRU) StepBackward(cache CellCache, dh, _ []float64) (dhPrev, dcarryPrev, dx []float64) {
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
		da[j] = dz * DSigmoid(c.z[j])
		da[2*H+j] = dHHat[j] * DTanh(c.hHat[j])
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
		da[H+j] = dr * DSigmoid(c.r[j])
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

// gruBatchState is the recurrent state of `lanes` independent GRU
// streams (lanes × H dense), the layer's weights packed for the row
// kernel, and the fused step's arguments and scratch. Like
// lstmBatchState it is its own Pool.Range worker.
type gruBatchState struct {
	h          []float64
	hidden, in int
	wx, wh     packedRows
	bias       []float64

	// one step's arguments, set by StepBatch before its Range call
	lanes         []int
	xs, hs        []float64
	asm, wide     bool
	ax, ah, rh, z []float64 // per-lane scratch (3H, 2H, H, H wide)
}

// NewBatchState returns zeroed state for `lanes` GRU lanes and
// snapshots the layer's weights (Wx and Wh packed, B copied).
func (g *GRU) NewBatchState(lanes int) BatchState {
	return &gruBatchState{
		h:      make([]float64, lanes*g.Hidden),
		hidden: g.Hidden,
		in:     g.In,
		wx:     packRows(g.Wx),
		wh:     packRows(g.Wh),
		bias:   append([]float64(nil), g.B.Data...),
	}
}

// GrowBatchState appends one zeroed lane.
func (g *GRU) GrowBatchState(st BatchState) int {
	s := st.(*gruBatchState)
	lane := len(s.h) / g.Hidden
	s.h = append(s.h, make([]float64, g.Hidden)...)
	return lane
}

// ResetBatchLane zeroes one lane's hidden state.
func (g *GRU) ResetBatchLane(st BatchState, lane int) {
	s := st.(*gruBatchState)
	zeroRange(s.h[lane*g.Hidden : (lane+1)*g.Hidden])
}

// StepBatch advances the listed lanes through one fused GRU step: per
// lane, the input and z/r recurrent products, the gates, and then the
// candidate path, which must follow the reset gate. All per-element
// accumulation orders mirror StepState (Dot/DotAcc on the same operand
// order), so outputs are bit-identical to the per-packet path.
func (g *GRU) StepBatch(st BatchState, lanes []int, xs []float64, hs []float64, pool *Pool) {
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
	k := gemmKernel()
	s.lanes, s.xs, s.hs, s.asm, s.wide = lanes, xs, hs, k.avx2, k.wideGates
	pool.Range(n, 3*H*(g.In+H)+3*H*gateMulAdds, s)
}

// RunRange steps lanes[lo:hi]; chunks touch disjoint rows.
func (s *gruBatchState) RunRange(lo, hi int) {
	H, In := s.hidden, s.in
	bias, wide := s.bias[:3*H], s.wide
	for a := lo; a < hi; a++ {
		lane := s.lanes[a]
		hPrev := s.h[lane*H : (lane+1)*H]
		ax := s.ax[a*3*H : (a+1)*3*H]
		ah := s.ah[a*2*H : (a+1)*2*H]
		rh := s.rh[a*H : (a+1)*H]
		z := s.z[a*H : (a+1)*H]
		s.wx.mulLane(0, s.xs[a*In:(a+1)*In], ax, s.asm)
		s.wh.mulLane(0, hPrev, ah, s.asm)
		// Pre-activations hoisted so the sigmoid passes run over
		// contiguous ranges (4 lanes per instruction when the wide gate
		// kernels are live); same ax + ah + bias association as StepState.
		for j := 0; j < 2*H; j++ {
			ax[j] = ax[j] + ah[j] + bias[j]
		}
		sigmoidLanes(z, ax[:H], wide)
		sigmoidLanes(rh, ax[H:2*H], wide)
		for j := 0; j < H; j++ {
			rh[j] = rh[j] * hPrev[j] // r ⊙ hPrev
		}
		// The candidate chain is DotAcc(ax+bias, row, r⊙h): it starts at
		// ax+bias, which can be -0, where skipping a ±0 term is not a
		// no-op (-0 + +0 = +0). So it goes through accLane, which takes
		// every term, not mulLane's zero-skip.
		hRow := s.hs[a*H : (a+1)*H]
		for j := 0; j < H; j++ {
			hRow[j] = ax[2*H+j] + bias[2*H+j]
		}
		s.wh.accLane(2*H, rh, hRow, s.asm)
		tanhLanes(hRow, hRow, wide)
		for j := 0; j < H; j++ {
			hRow[j] = (1-z[j])*hPrev[j] + z[j]*hRow[j]
		}
		copy(hPrev, hRow)
	}
}

var _ Cell = (*GRU)(nil)
