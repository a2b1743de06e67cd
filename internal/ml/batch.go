package ml

import "fmt"

// This file holds the batched Mimic inference engine's ML half and the
// lane products the minibatch trainer (train_batch.go) runs on:
//
//   - BatchedStatefulModel, a bank of B independent hidden states
//     advanced through one fused step per "round", and the fused LSTM
//     step (the GRU's and the windowed MLP's live in gru.go and
//     mlp.go). A step runs per lane: the row-kernel products
//     (rowkernel.go, DESIGN.md decision 18) — the input's zero-skipping,
//     the dense recurrent state's taking every term (decision 35) —
//     then the gates, one wide-kernel call per gate pass (gates.go),
//     with lanes split over the pool only above the dispatch floor
//     (pool.go). The batch state is the Range worker, so a step
//     allocates nothing.
//   - laneGemm, the trainer's products over a minibatch of lanes
//     (DESIGN.md decisions 19, 20 and 38), all on the same row kernel:
//     the forward product W·x is one row-kernel walk per lane over W
//     packed once per minibatch, the backward product Mᵀ·dy one per lane
//     over a view of M that needs no packing, and the weight gradient
//     one per gradient row over the lanes' inputs, reading its column of
//     dz in place — for the LSTM once per minibatch, over every step's
//     lanes (train_batch.go). A sparse input lists its non-zero columns
//     first; a dense one passes its zeros by as the walk reaches them.
//     A laneGemm in the caller's scratch holds a product's arguments and
//     is its Range worker, so a trainer step allocates nothing either.
//
// The simulator half (request collection and flushing) lives in
// internal/core's InferenceScheduler. Every product keeps the per-element
// arithmetic order of the per-packet dot, so predictions match the
// per-packet reference path (kept in the tests) bit-for-bit.

// Lane-product block sizes: the granularity at which Pool.Range may
// split a product — 16 lanes for the per-lane products, 32 gradient rows
// for the weight gradient.
const (
	gemmRowBlock  = 32
	gemmLaneBlock = 16
)

// laneView is one operand of a lane product: lane a is
// v[a*stride+off : a*stride+off+width].
type laneView struct {
	v                  []float64
	stride, off, width int
}

func (l laneView) lane(a int) []float64 {
	i := a*l.stride + l.off
	return l.v[i : i+l.width]
}

// laneMode is how a lane product walks its terms.
type laneMode uint8

const (
	// laneSparse: one mulLane per lane, its non-zero columns listed
	// first — the inputs x, mostly exact zeros.
	laneSparse laneMode = iota
	// laneDense: one accStrided per lane, exact zeros passed by in the
	// walk — the recurrent state h and the gate gradients dz.
	laneDense
	// laneGrad: the weight gradient, one accStrided per gradient row
	// over the lanes, reading dz in place.
	laneGrad
)

// laneGemm holds one lane product's arguments and is its Pool.Range
// worker. A trainer layer keeps one in its scratch and reuses it for
// every product it runs (Range calls never nest), so a product hands
// the pool a pointer the layer already has and allocates nothing.
type laneGemm struct {
	mode   laneMode
	n      int
	r0, r1 int        // per lane: p's first row; gradient: m's rows
	p      packedRows // per lane: the matrix, k-major; gradient: the lanes' inputs, one column each
	m      *Matrix    // the gradient's matrix
	x, y   laneView   // per lane: each lane's input and output; gradient: y is the dys lanes
	idx    []int      // laneSparse: each lane's column list, n × x.width, kept across products
}

// mulLanes is the trainer's batched counterpart of MulVec: for every
// lane a in [0, n) and every row r in [r0, r1) it computes
//
//	out[a*outStride + r] = dot(m.row(r), xs[a*m.Cols : (a+1)*m.Cols])
//
// xs is n×Cols row-major; out rows are outStride wide and indexed by the
// absolute row number r (so outStride must be >= r1). p is m packed
// k-major — a trainer packs its weights once per minibatch (begin).
// Each lane skips its exact-zero inputs, bitwise equal to the dense dot
// for finite weights (rowkernel.go): a sparse product lists them first
// (mulLane), a dense one passes them by as it walks (accStrided).
func (g *laneGemm) mulLanes(m *Matrix, p *packedRows, r0, r1 int, xs []float64, n int, out []float64, outStride int, dense bool, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: mulLanes rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if outStride < r1 {
		panic(fmt.Sprintf("ml: mulLanes outStride %d < r1 %d", outStride, r1))
	}
	K := m.Cols
	if n < 0 || len(xs) < n*K {
		panic(fmt.Sprintf("ml: mulLanes xs len %d < %d lanes × %d cols", len(xs), n, K))
	}
	if len(out) < n*outStride {
		panic(fmt.Sprintf("ml: mulLanes out len %d < %d lanes × stride %d", len(out), n, outStride))
	}
	if r0 == r1 || n == 0 {
		return
	}
	mode := laneSparse
	if dense {
		mode = laneDense
	}
	*g = laneGemm{mode: mode, n: n, r0: r0, p: *p, idx: g.idx,
		x: laneView{v: xs, stride: K, width: K},
		y: laneView{v: out, stride: outStride, off: r0, width: r1 - r0}}
	if !dense {
		g.idx = growInts(g.idx, n*K)
	}
	g.perLane(K, pool)
}

// mulLanesT is the batched counterpart of MulVecT (the backprop of
// y = Mx into x): for every lane a in [0, n) it overwrites
//
//	out[a*Cols + c] = Σ_{r in [r0,r1)} dys[a*dyStride + r] * M[r][c]
//
// dys rows are dyStride wide and indexed by absolute row number (the
// layout mulLanes writes), so a trainer feeds gate gradients straight
// back through the weight matrices. Row r of M is column r of Mᵀ, so
// M.Data read as a k-major matrix of Cols rows is Mᵀ: each lane is one
// dense walk over that view with its dy as the input, nothing packed.
// The sum per output element runs in ascending r over the rows whose d
// is not an exact zero — MulVecT's skip set, found by testing each d as
// the walk reaches it: dz is dense, so no list is built.
func (g *laneGemm) mulLanesT(m *Matrix, r0, r1 int, dys []float64, dyStride, n int, out []float64, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: mulLanesT rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if dyStride < r1 {
		panic(fmt.Sprintf("ml: mulLanesT dyStride %d < r1 %d", dyStride, r1))
	}
	if n < 0 || len(dys) < n*dyStride {
		panic(fmt.Sprintf("ml: mulLanesT dys len %d < %d lanes × stride %d", len(dys), n, dyStride))
	}
	K := m.Cols
	if len(out) < n*K {
		panic(fmt.Sprintf("ml: mulLanesT out len %d < %d lanes × %d cols", len(out), n, K))
	}
	if n == 0 {
		return
	}
	*g = laneGemm{mode: laneDense, n: n, p: packedRows{rows: K, t: m.Data[r0*K : r1*K]}, idx: g.idx,
		x: laneView{v: dys, stride: dyStride, off: r0, width: r1 - r0},
		y: laneView{v: out, stride: K, width: K}}
	g.perLane(r1-r0, pool)
}

// perLane runs the per-lane product set up last over the pool in lane
// blocks; k is the input width, for the work estimate.
func (g *laneGemm) perLane(k int, pool *Pool) {
	aTiles := (g.n + gemmLaneBlock - 1) / gemmLaneBlock
	pool.Range(aTiles, g.y.width*g.n*k/aTiles, g)
}

// addGradLanes is the batched counterpart of AddOuterGrad (the weight
// gradient of y = Mx over a minibatch): for r in [r0,r1) it accumulates
//
//	Grad[r][c] += Σ_{a in [0,n)} dys[a*dyStride + r] * xs[a*Cols + c]
//
// Gradient row r is Σ_a d_a·x_a: the lanes' inputs are the columns (xs
// read k-major, one column per lane) and column r of dys, read in place
// with stride dyStride, the input vector, so each row is one row-kernel
// walk over the lanes (accStrided). The lane sum runs in strictly
// ascending a order for every element, passing by the lanes whose d is
// an exact zero (AddOuterGrad's skip set) — the fixed reduction order
// that makes minibatch gradients bitwise reproducible run to run — and
// each gradient row is owned by exactly one chunk, so results are also
// independent of worker count.
func (g *laneGemm) addGradLanes(m *Matrix, r0, r1 int, dys []float64, dyStride, n int, xs []float64, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: addGradLanes rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if dyStride < r1 {
		panic(fmt.Sprintf("ml: addGradLanes dyStride %d < r1 %d", dyStride, r1))
	}
	if n < 0 || len(dys) < n*dyStride {
		panic(fmt.Sprintf("ml: addGradLanes dys len %d < %d lanes × stride %d", len(dys), n, dyStride))
	}
	K := m.Cols
	if len(xs) < n*K {
		panic(fmt.Sprintf("ml: addGradLanes xs len %d < %d lanes × %d cols", len(xs), n, K))
	}
	rows := r1 - r0
	if n == 0 || rows == 0 {
		return
	}
	*g = laneGemm{mode: laneGrad, n: n, r0: r0, r1: r1, m: m, idx: g.idx,
		p: packedRows{rows: K, t: xs[:n*K]},
		y: laneView{v: dys, stride: dyStride}}
	rTiles := (rows + gemmRowBlock - 1) / gemmRowBlock
	pool.Range(rTiles, rows*n*K/rTiles, g)
}

// RunRange computes blocks [lo, hi) of the product set up last: lane
// blocks of a per-lane product, row blocks of the weight gradient.
// Chunks write disjoint outputs.
func (g *laneGemm) RunRange(lo, hi int) {
	if g.mode == laneGrad {
		K := g.m.Cols
		for r, rhi := g.r0+lo*gemmRowBlock, min(g.r0+hi*gemmRowBlock, g.r1); r < rhi; r++ {
			g.p.accStrided(0, g.y.v[r:], g.y.stride, g.n, g.m.Grad[r*K:(r+1)*K])
		}
		return
	}
	K := g.x.width
	for a, ahi := lo*gemmLaneBlock, min(hi*gemmLaneBlock, g.n); a < ahi; a++ {
		x, out := g.x.lane(a), g.y.lane(a)
		if g.mode == laneSparse {
			g.p.mulLane(g.r0, x, out, g.idx[a*K:(a+1)*K])
			continue
		}
		zeroRange(out)
		g.p.accStrided(g.r0, x, 1, K, out)
	}
}

// addBiasGradLanes accumulates Grad[r] += Σ_a dys[a*dyStride + r] for
// r in [r0,r1), in ascending-lane order per element. With useWideGates
// the whole 4-row groups keep their sums in registers across the lanes
// (biasGradWide); the rest go lanes outer, for locality.
func addBiasGradLanes(b *Matrix, r0, r1 int, dys []float64, dyStride, n int) {
	if n == 0 || r0 == r1 {
		return
	}
	grad := b.Grad[r0:r1]
	_ = dys[(n-1)*dyStride+r1-1]
	done := 0
	if useWideGates && len(grad) >= 4 {
		biasGradWide(&grad[0], &dys[r0], dyStride*8, n, len(grad))
		done = len(grad) &^ 3
	}
	for a := 0; a < n && done < len(grad); a++ {
		row := dys[a*dyStride+r0 : a*dyStride+r1]
		for r := done; r < len(grad); r++ {
			grad[r] += row[r]
		}
	}
}

// lstmBatchState is the recurrent state of `lanes` independent LSTM
// streams, stored densely (lanes × H), the layer's weights packed for
// the row kernel, and the fused step's per-call arguments and scratch.
// It is its own Pool.Range worker (RunRange), so a step allocates
// nothing.
type lstmBatchState struct {
	h, c       []float64
	hidden, in int
	wx, wh     packedRows
	bias       []float64

	// one step's arguments, set by stepBatch before its Range call
	lanes  []int
	xs, hs []float64
	zx, zh []float64 // n×4H scratch
	idx    []int     // n×In scratch: each lane's input column list
}

// newBatchState returns zeroed state for `lanes` LSTM lanes and
// snapshots the layer's weights: Wx and Wh packed for the row kernel,
// B copied.
func (l *lstm) newBatchState(lanes int) batchState {
	return &lstmBatchState{
		h:      make([]float64, lanes*l.Hidden),
		c:      make([]float64, lanes*l.Hidden),
		hidden: l.Hidden,
		in:     l.In,
		wx:     packRows(l.Wx),
		wh:     packRows(l.Wh),
		bias:   append([]float64(nil), l.B.Data...),
	}
}

// growBatchState appends one zeroed lane.
func (l *lstm) growBatchState(st batchState) {
	s := st.(*lstmBatchState)
	s.h = append(s.h, make([]float64, l.Hidden)...)
	s.c = append(s.c, make([]float64, l.Hidden)...)
}

// resetBatchLane zeroes one lane's hidden and cell state.
func (l *lstm) resetBatchLane(st batchState, lane int) {
	s := st.(*lstmBatchState)
	H := l.Hidden
	zeroRange(s.h[lane*H : (lane+1)*H])
	zeroRange(s.c[lane*H : (lane+1)*H])
}

func zeroRange(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// stepBatch advances the listed lanes through one fused LSTM step: per
// lane, the two row-kernel products and the gate pass, with lanes split
// across the pool only above the dispatch floor. Per-element math is the
// per-packet reference step's (zx + (zh + b), same gate expressions), so
// outputs equal it bit-for-bit.
func (l *lstm) stepBatch(st batchState, lanes []int, xs []float64, hs []float64, pool *Pool) {
	s := st.(*lstmBatchState)
	n := len(lanes)
	if n == 0 {
		return
	}
	H := l.Hidden
	s.zx = growFloats(s.zx, n*4*H)
	s.zh = growFloats(s.zh, n*4*H)
	s.idx = growInts(s.idx, n*l.In)
	s.lanes, s.xs, s.hs = lanes, xs, hs
	pool.Range(n, l.stepCost(), s)
}

// stepCost is one lane's fused step in multiply-add equivalents: the two
// products and five gate passes.
func (l *lstm) stepCost() int {
	return 4*l.Hidden*(l.In+l.Hidden) + 5*l.Hidden*gateMulAdds
}

// RunRange steps lanes[lo:hi]. Each lane reads and writes only its own
// rows of h, c and the scratch, so chunks are disjoint.
func (s *lstmBatchState) RunRange(lo, hi int) {
	H, In := s.hidden, s.in
	bias, wide := s.bias[:4*H], useWideGates
	for a := lo; a < hi; a++ {
		lane := s.lanes[a]
		hPrev := s.h[lane*H : (lane+1)*H]
		cPrev := s.c[lane*H : (lane+1)*H]
		zx := s.zx[a*4*H : (a+1)*4*H]
		zh := s.zh[a*4*H : (a+1)*4*H]
		s.wx.mulLane(0, s.xs[a*In:(a+1)*In], zx, s.idx[a*In:(a+1)*In])
		s.wh.mulDense(0, hPrev, zh)
		// z[i] += zh[i] + B[i], the reference association. The pre-adds
		// are hoisted out of the gate loop so the sigmoid/tanh passes
		// run over contiguous quarters — one kernel call per pass, 4
		// lanes per instruction, when the wide gate kernels are live,
		// the same scalar calls per element otherwise.
		addSumLanes(zx, zh, bias, wide)
		sigmoidLanes(zx[:2*H], zx[:2*H], wide)       // i and f (adjacent quarters)
		tanhLanes(zx[2*H:3*H], zx[2*H:3*H], wide)    // g
		sigmoidLanes(zx[3*H:4*H], zx[3*H:4*H], wide) // o
		// cNew = f*cPrev + i*g, the reference association.
		cellLanes(cPrev, zx[H:2*H], zx[:H], zx[2*H:3*H], wide)
		hRow := s.hs[a*H : (a+1)*H]
		tanhLanes(hRow, cPrev, wide)
		prodLanes(hRow, zx[3*H:4*H], hRow, wide)
		copy(hPrev, hRow)
	}
}

// growFloats returns buf with length at least n (contents unspecified).
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growInts is growFloats for a column-list scratch.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// BatchedStatefulModel carries B independent recurrent streams ("lanes")
// of one trained model through fused steps: a step over k lanes does the
// work of k per-packet steps in one pass. It is the one inference path —
// one lane per Mimic direction in a composed run, a bank of evalLanes
// for Evaluate, one lane for Forward.
type BatchedStatefulModel struct {
	model  *Model
	pool   *Pool
	lanes  int
	states []batchState // one per trunk layer

	// LaneSteps counts inference steps per lane, keeping the Figure 23
	// compute accounting exact per Mimic.
	LaneSteps []uint64

	// double-buffered dense activations for one fused step
	bufA, bufB []float64
}

// NewBatchedStatefulModel builds a lane bank over a trained model. A nil
// pool uses the process-wide SharedPool.
func NewBatchedStatefulModel(m *Model, lanes int, pool *Pool) *BatchedStatefulModel {
	if pool == nil {
		pool = SharedPool()
	}
	b := &BatchedStatefulModel{model: m, pool: pool, lanes: lanes, LaneSteps: make([]uint64, lanes)}
	for _, c := range m.Trunk {
		b.states = append(b.states, c.newBatchState(lanes))
	}
	return b
}

// Model returns the wrapped model.
func (b *BatchedStatefulModel) Model() *Model { return b.model }

// StepCost is one lane step's estimated work in multiply-add equivalents:
// what each trunk layer's step states to Pool.Range per lane, plus the
// three heads. A caller pricing k pending steps for Range states k times
// this.
func (b *BatchedStatefulModel) StepCost() int {
	c := 3 * b.model.Cfg.Hidden
	for _, cell := range b.model.Trunk {
		c += cell.stepCost()
	}
	return c
}

// AddLane appends a fresh zero-state lane and returns its index.
func (b *BatchedStatefulModel) AddLane() int {
	for li, c := range b.model.Trunk {
		c.growBatchState(b.states[li])
	}
	b.LaneSteps = append(b.LaneSteps, 0)
	b.lanes++
	return b.lanes - 1
}

// ResetLane zeroes one lane's recurrent state (its step count persists).
func (b *BatchedStatefulModel) ResetLane(lane int) {
	for li, c := range b.model.Trunk {
		c.resetBatchLane(b.states[li], lane)
	}
}

// StepLanes advances each listed lane by one input. lanes must be
// distinct; xs[i] is lane lanes[i]'s feature vector. When want is nil or
// want[i] is true, out[i] receives the head predictions (out may be nil
// when want masks every lane — feeder advances discard outputs).
func (b *BatchedStatefulModel) StepLanes(lanes []int, xs [][]float64, want []bool, out []Prediction) {
	n := len(lanes)
	if n == 0 {
		return
	}
	obsBatchSize.Observe(float64(n))
	width := b.model.Cfg.Features
	H := b.model.Cfg.Hidden
	max := width
	if H > max {
		max = H
	}
	b.bufA = growFloats(b.bufA, n*max)
	b.bufB = growFloats(b.bufB, n*max)
	cur := b.bufA
	for i, x := range xs {
		if len(x) != width {
			panic(fmt.Sprintf("ml: StepLanes input %d has width %d, want %d", i, len(x), width))
		}
		copy(cur[i*width:(i+1)*width], x)
	}
	next := b.bufB
	for li, c := range b.model.Trunk {
		h := c.HiddenSize()
		c.stepBatch(b.states[li], lanes, cur[:n*width], next[:n*h], b.pool)
		cur, next = next, cur
		width = h
	}
	for i, lane := range lanes {
		b.LaneSteps[lane]++
		if want == nil || want[i] {
			out[i] = b.model.headsRow(cur[i*width : (i+1)*width])
		}
	}
}

// headsRow computes the three heads without allocating. Each head value
// is sigmoid(dot(W.row, h) + b), the per-packet reference's accumulation.
func (m *Model) headsRow(h []float64) Prediction {
	return Prediction{
		Latency: sigmoid(dot(m.LatHead.W.Data, h) + m.LatHead.B.Data[0]),
		PDrop:   sigmoid(dot(m.DropHead.W.Data, h) + m.DropHead.B.Data[0]),
		PECN:    sigmoid(dot(m.ECNHead.W.Data, h) + m.ECNHead.B.Data[0]),
	}
}
