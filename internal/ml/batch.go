package ml

import "fmt"

// This file holds the batched Mimic inference engine's ML half and the
// lane products the minibatch trainer (train_batch.go) runs on:
//
//   - BatchedStatefulModel, a bank of B independent hidden states
//     advanced through one fused step per "round", and the fused LSTM
//     step (the GRU's lives in gru.go). A step runs per lane: the
//     row-kernel products (rowkernel.go, DESIGN.md decision 18), then the
//     gates, with lanes split over the pool only above the dispatch floor
//     (pool.go). The batch state is the Range worker, so a step
//     allocates nothing.
//   - MulLanes / MulLanesT / AddGradLanes, the trainer's products over a
//     minibatch of lanes (DESIGN.md decision 19). The two backward
//     products and MulLanes' sparse branch run on the row kernel over
//     views that need no packing beyond W once per minibatch; dense
//     MulLanes keeps the lane-tiled gemm16/gemm8, which are at their
//     best on the trainer's full 16-lane tiles. A laneGemm in the
//     caller's scratch holds a product's arguments and is its Range
//     worker, so a trainer step allocates nothing either.
//
// The simulator half (request collection and flushing) lives in
// internal/core's InferenceScheduler. Every path keeps the per-element
// arithmetic order of the per-packet Dot, so predictions match the
// per-packet path bit-for-bit.

// GEMM block sizes: the granularity at which Pool.Range may split a GEMM.
// Chunk edges fall only on block edges, so a lane chunk always starts on
// a microkernel tile (16 lanes) and a row chunk on the two- and four-row
// blocking of the kernels.
const (
	gemmRowBlock  = 32
	gemmLaneBlock = 16
)

// MulLanes is the trainer's batched counterpart of MulVec: for every
// lane a in [0, n) and every row r in [r0, r1) it computes
//
//	out[a*outStride + r] = Dot(M.row(r), xs[a*M.Cols : (a+1)*M.Cols])
//
// xs is n×Cols row-major; out rows are outStride wide and indexed by the
// absolute row number r (so outStride must be >= r1). The work is split
// across pool when the product is large enough to repay it (Pool.Range);
// each output element is produced by exactly one chunk with a fixed
// k-order accumulation (Dot), so results are bitwise identical to n
// MulVec calls regardless of worker count.
func (m *Matrix) MulLanes(r0, r1 int, xs []float64, n int, out []float64, outStride int, pool *Pool) {
	new(laneGemm).mulLanes(m, nil, r0, r1, xs, n, out, outStride, pool)
}

// MulLanesT is the batched counterpart of MulVecT (the backprop of
// y = Mx into x): for every lane a in [0, n) it overwrites
//
//	out[a*Cols + c] = Σ_{r in [r0,r1)} dys[a*dyStride + r] * M[r][c]
//
// dys rows are dyStride wide and indexed by absolute row number (the
// same layout MulLanes writes), so a trainer can feed gate gradients
// straight back through the weight matrices. Accumulation per output
// element is in strictly ascending r order over the rows whose d is not
// an exact zero (MulVecT's skip set), and each lane is produced by
// exactly one chunk, so results are bitwise independent of worker count.
func (m *Matrix) MulLanesT(r0, r1 int, dys []float64, dyStride, n int, out []float64, pool *Pool) {
	new(laneGemm).mulLanesT(m, r0, r1, dys, dyStride, n, out, pool)
}

// AddGradLanes is the batched counterpart of AddOuterGrad (the weight
// gradient of y = Mx over a minibatch): for r in [r0,r1) it accumulates
//
//	Grad[r][c] += Σ_{a in [0,n)} dys[a*dyStride + r] * xs[a*Cols + c]
//
// The lane sum runs in strictly ascending a order for every element,
// skipping the lanes whose d is an exact zero (AddOuterGrad's skip set)
// — the fixed reduction order that makes minibatch gradients bitwise
// reproducible run to run — and each gradient row is owned by exactly
// one chunk, so results are also independent of worker count.
func (m *Matrix) AddGradLanes(r0, r1 int, dys []float64, dyStride, n int, xs []float64, pool *Pool) {
	new(laneGemm).addGradLanes(m, r0, r1, dys, dyStride, n, xs, pool)
}

// laneOp selects the product a laneGemm's RunRange computes.
type laneOp uint8

const (
	opMulDense  laneOp = iota // MulLanes over row tiles: lane-tiled GEMM
	opMulSparse               // MulLanes over lane tiles: row kernel on packed W
	opMulT                    // MulLanesT over lane tiles
	opAddGrad                 // AddGradLanes over row tiles
)

// laneGemm holds one lane product's arguments and is its Pool.Range
// worker. A trainer layer keeps one in its scratch and reuses it for
// every product it runs (Range calls never nest), so a product hands
// the pool a pointer the layer already has and allocates nothing.
type laneGemm struct {
	op        laneOp
	m         *Matrix
	p         *packedRows // m packed k-major (opMulSparse)
	r0, r1, n int
	xs        []float64 // n×Cols lane inputs (MulLanes, AddGradLanes)
	dys       []float64 // lane gradients, stride apart (MulLanesT, AddGradLanes)
	out       []float64 // MulLanes: stride apart; MulLanesT: Cols apart
	stride    int       // MulLanes' out stride, or the dys stride
	asm       bool      // the avx2 family: rowsAcc
	tileLanes int       // the family's widest GEMM tile (gemmImpl.tileLanes)

	// The dense branch's lane tiles, kept across products: lanes
	// [a, a+w) of a w-lane block sit k-major at tile[a*Cols:(a+w)*Cols].
	// tiled is how many leading lanes the blocks cover.
	tile  []float64
	tiled int
}

// mulLanes runs MulLanes. p is m packed k-major for the sparse branch —
// a trainer packs its weights once per minibatch — or nil to pack here
// when the branch is taken.
func (g *laneGemm) mulLanes(m *Matrix, p *packedRows, r0, r1 int, xs []float64, n int, out []float64, outStride int, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: MulLanes rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if outStride < r1 {
		panic(fmt.Sprintf("ml: MulLanes outStride %d < r1 %d", outStride, r1))
	}
	if n < 0 || len(xs) < n*m.Cols {
		panic(fmt.Sprintf("ml: MulLanes xs len %d < %d lanes × %d cols", len(xs), n, m.Cols))
	}
	if len(out) < n*outStride {
		panic(fmt.Sprintf("ml: MulLanes out len %d < %d lanes × stride %d", len(out), n, outStride))
	}
	rows, K := r1-r0, m.Cols
	if rows == 0 || n == 0 {
		return
	}
	k := gemmKernel()
	*g = laneGemm{m: m, p: p, r0: r0, r1: r1, n: n, xs: xs, out: out, stride: outStride, asm: k.avx2, tileLanes: k.tileLanes, tile: g.tile}
	// First-layer inputs are mostly one-hot (rack/server/agg/core blocks)
	// and a fresh hidden state is all zeros, so often over half the
	// multiply-adds are against exact zeros. When at most half the inputs
	// are non-zero, each lane goes through the row kernel, which skips
	// them: bitwise equal to the dense sum for finite weights
	// (rowkernel.go). Hidden-state inputs are dense and take the lane
	// GEMM below.
	if rows >= 4 && n*K >= 64 {
		if nnz := countNonZero(xs[:n*K]); nnz <= n*K/2 {
			if g.p == nil {
				pk := packRows(m)
				g.p = &pk
			}
			g.op = opMulSparse
			aTiles := (n + gemmLaneBlock - 1) / gemmLaneBlock
			pool.Range(aTiles, rows*nnz/aTiles, g)
			return
		}
	}
	g.op = opMulDense
	g.packTiles()
	rTiles := (rows + gemmRowBlock - 1) / gemmRowBlock
	pool.Range(rTiles, rows*n*K/rTiles, g)
}

// mulLanesT runs MulLanesT.
func (g *laneGemm) mulLanesT(m *Matrix, r0, r1 int, dys []float64, dyStride, n int, out []float64, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: MulLanesT rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if dyStride < r1 {
		panic(fmt.Sprintf("ml: MulLanesT dyStride %d < r1 %d", dyStride, r1))
	}
	if n < 0 || len(dys) < n*dyStride {
		panic(fmt.Sprintf("ml: MulLanesT dys len %d < %d lanes × stride %d", len(dys), n, dyStride))
	}
	K := m.Cols
	if len(out) < n*K {
		panic(fmt.Sprintf("ml: MulLanesT out len %d < %d lanes × %d cols", len(out), n, K))
	}
	if n == 0 {
		return
	}
	*g = laneGemm{op: opMulT, m: m, r0: r0, r1: r1, n: n, dys: dys, out: out, stride: dyStride, asm: gemmKernel().avx2, tile: g.tile}
	aTiles := (n + gemmLaneBlock - 1) / gemmLaneBlock
	pool.Range(aTiles, (r1-r0)*n*K/aTiles, g)
}

// addGradLanes runs AddGradLanes.
func (g *laneGemm) addGradLanes(m *Matrix, r0, r1 int, dys []float64, dyStride, n int, xs []float64, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: AddGradLanes rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if dyStride < r1 {
		panic(fmt.Sprintf("ml: AddGradLanes dyStride %d < r1 %d", dyStride, r1))
	}
	if n < 0 || len(dys) < n*dyStride {
		panic(fmt.Sprintf("ml: AddGradLanes dys len %d < %d lanes × stride %d", len(dys), n, dyStride))
	}
	K := m.Cols
	if len(xs) < n*K {
		panic(fmt.Sprintf("ml: AddGradLanes xs len %d < %d lanes × %d cols", len(xs), n, K))
	}
	rows := r1 - r0
	if n == 0 || rows == 0 {
		return
	}
	*g = laneGemm{op: opAddGrad, m: m, r0: r0, r1: r1, n: n, xs: xs, dys: dys, stride: dyStride, asm: gemmKernel().avx2, tile: g.tile}
	rTiles := (rows + gemmRowBlock - 1) / gemmRowBlock
	pool.Range(rTiles, rows*n*K/rTiles, g)
}

// RunRange computes tiles [lo, hi) of the product set up last: row
// tiles for the dense MulLanes and AddGradLanes, lane tiles otherwise.
// Chunks write disjoint outputs.
//
// The backward products are the row kernel over views of what the
// trainer already holds, so nothing is packed. In MulLanesT, row r of M
// is column r of Mᵀ, so M.Data read as a k-major matrix of Cols rows is
// Mᵀ, and a lane's dy is the input vector. In AddGradLanes, gradient row
// r is Σ_a d_a·x_a: the lanes' inputs are the columns (xs read k-major,
// one column per lane) and the gathered d_a are the input vector. The
// row kernel's zero-skip drops exactly the terms with d = 0, which the
// per-vector MulVecT and AddOuterGrad skip too; the skip must stay,
// because adding 0·row is not a no-op when the row holds ±Inf or NaN.
func (g *laneGemm) RunRange(lo, hi int) {
	K := g.m.Cols
	switch g.op {
	case opMulDense:
		g.mulDense(lo, hi)
	case opMulSparse:
		for a, ahi := lo*gemmLaneBlock, min(hi*gemmLaneBlock, g.n); a < ahi; a++ {
			g.p.mulLane(g.r0, g.xs[a*K:(a+1)*K], g.out[a*g.stride+g.r0:a*g.stride+g.r1], g.asm)
		}
	case opMulT:
		mt := packedRows{rows: K, t: g.m.Data[g.r0*K : g.r1*K]}
		for a, ahi := lo*gemmLaneBlock, min(hi*gemmLaneBlock, g.n); a < ahi; a++ {
			mt.mulLane(0, g.dys[a*g.stride+g.r0:a*g.stride+g.r1], g.out[a*K:(a+1)*K], g.asm)
		}
	case opAddGrad:
		var d [64]float64 // one gathered block of lane gradients
		for r, rhi := g.r0+lo*gemmRowBlock, min(g.r0+hi*gemmRowBlock, g.r1); r < rhi; r++ {
			grad := g.m.Grad[r*K : (r+1)*K]
			for a0 := 0; a0 < g.n; a0 += len(d) {
				dd := d[:min(len(d), g.n-a0)]
				for j := range dd {
					dd[j] = g.dys[(a0+j)*g.stride+r]
				}
				lanes := packedRows{rows: K, t: g.xs[a0*K : (a0+len(dd))*K]}
				lanes.accumulate(0, dd, grad, true, g.asm)
			}
		}
	}
}

// packTiles lays the full lane blocks of xs out k-major for the
// family's microkernels — 16-lane blocks for gemm16, then 8-lane ones
// for gemm8 — once per product; every row chunk reads them.
func (g *laneGemm) packTiles() {
	K, n := g.m.Cols, g.n
	g.tiled = 0
	if g.tileLanes == 0 || K == 0 || n < 8 {
		return
	}
	g.tile = growFloats(g.tile, n*K)
	for w := min(g.tileLanes, 16); w >= 8; w /= 2 {
		for ; g.tiled+w <= n; g.tiled += w {
			a0 := g.tiled
			t := g.tile[a0*K : (a0+w)*K]
			for j := 0; j < w; j++ {
				for k, v := range g.xs[(a0+j)*K : (a0+j+1)*K] {
					t[k*w+j] = v
				}
			}
		}
	}
}

// mulDense is MulLanes' dense branch over row tiles [lo, hi). The tiled
// lane blocks go through the selected microkernel family
// (gemm_dispatch.go): AVX2 gemm16 for 16-lane blocks, SSE2 gemm8 for
// 8-lane ones. Packed lanes advance through k with (V)MULPD-then-(V)ADDPD
// — one independent accumulator chain per lane, still in strict k
// order, so every output element is bitwise equal to a lone Dot.
// Remainder lanes (or the scalar family) fall through to a pure-Go loop
// with 4 independent accumulators: a single Dot is one serial
// dependency chain and is latency-bound; multiple chains fill the FPU
// pipeline and reuse the weight row from registers/L1.
func (g *laneGemm) mulDense(lo, hi int) {
	m, xs, n, out, outStride := g.m, g.xs, g.n, g.out, g.stride
	K := m.Cols
	rlo, rhi := g.r0+lo*gemmRowBlock, min(g.r0+hi*gemmRowBlock, g.r1)
	for a0 := 0; a0 < g.tiled; {
		if g.tileLanes >= 16 && a0+16 <= g.tiled {
			gemm16(&m.Data[rlo*K], rhi-rlo, K, &g.tile[a0*K], 128, &out[a0*outStride+rlo], outStride*8)
			a0 += 16
		} else {
			gemm8(&m.Data[rlo*K], rhi-rlo, K, &g.tile[a0*K], 64, &out[a0*outStride+rlo], outStride*8)
			a0 += 8
		}
	}
	for r := rlo; r < rhi; r++ {
		wrow := m.Data[r*K : (r+1)*K]
		a := g.tiled
		for ; a+4 <= n; a += 4 {
			// Re-slicing to len(wrow) lets the compiler drop the
			// per-element bounds checks inside the hot loop.
			x0 := xs[a*K : (a+1)*K][:len(wrow)]
			x1 := xs[(a+1)*K : (a+2)*K][:len(wrow)]
			x2 := xs[(a+2)*K : (a+3)*K][:len(wrow)]
			x3 := xs[(a+3)*K : (a+4)*K][:len(wrow)]
			var s0, s1, s2, s3 float64
			for k, w := range wrow {
				s0 += w * x0[k]
				s1 += w * x1[k]
				s2 += w * x2[k]
				s3 += w * x3[k]
			}
			out[a*outStride+r] = s0
			out[(a+1)*outStride+r] = s1
			out[(a+2)*outStride+r] = s2
			out[(a+3)*outStride+r] = s3
		}
		for ; a < n; a++ {
			out[a*outStride+r] = Dot(wrow, xs[a*K:(a+1)*K])
		}
	}
}

// countNonZero returns how many elements of v are not exact zeros.
func countNonZero(v []float64) int {
	nnz := 0
	for _, x := range v {
		if x != 0 {
			nnz++
		}
	}
	return nnz
}

// addBiasGradLanes accumulates Grad[r] += Σ_a dys[a*dyStride + r] for
// r in [r0,r1), in ascending-lane order per element (lanes outer for
// locality; the per-element order is still ascending a).
func addBiasGradLanes(b *Matrix, r0, r1 int, dys []float64, dyStride, n int) {
	for a := 0; a < n; a++ {
		row := dys[a*dyStride:]
		for r := r0; r < r1; r++ {
			b.Grad[r] += row[r]
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

	// one step's arguments, set by StepBatch before its Range call
	lanes     []int
	xs, hs    []float64
	asm, wide bool
	zx, zh    []float64 // n×4H scratch
}

// NewBatchState returns zeroed state for `lanes` LSTM lanes and
// snapshots the layer's weights: Wx and Wh packed for the row kernel,
// B copied.
func (l *LSTM) NewBatchState(lanes int) BatchState {
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

// GrowBatchState appends one zeroed lane.
func (l *LSTM) GrowBatchState(st BatchState) int {
	s := st.(*lstmBatchState)
	lane := len(s.h) / l.Hidden
	s.h = append(s.h, make([]float64, l.Hidden)...)
	s.c = append(s.c, make([]float64, l.Hidden)...)
	return lane
}

// ResetBatchLane zeroes one lane's hidden and cell state.
func (l *LSTM) ResetBatchLane(st BatchState, lane int) {
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

// StepBatch advances the listed lanes through one fused LSTM step: per
// lane, the two row-kernel products and the gate pass, with lanes split
// across the pool only above the dispatch floor. Per-element math
// mirrors LSTM.Step exactly (zx + (zh + b), same gate expressions), so
// outputs equal the per-packet path bit-for-bit.
func (l *LSTM) StepBatch(st BatchState, lanes []int, xs []float64, hs []float64, pool *Pool) {
	s := st.(*lstmBatchState)
	n := len(lanes)
	if n == 0 {
		return
	}
	H := l.Hidden
	s.zx = growFloats(s.zx, n*4*H)
	s.zh = growFloats(s.zh, n*4*H)
	k := gemmKernel()
	s.lanes, s.xs, s.hs, s.asm, s.wide = lanes, xs, hs, k.avx2, k.wideGates
	pool.Range(n, 4*H*(l.In+H)+5*H*gateMulAdds, s)
}

// RunRange steps lanes[lo:hi]. Each lane reads and writes only its own
// rows of h, c and the scratch, so chunks are disjoint.
func (s *lstmBatchState) RunRange(lo, hi int) {
	H, In := s.hidden, s.in
	bias, wide := s.bias[:4*H], s.wide
	for a := lo; a < hi; a++ {
		lane := s.lanes[a]
		hPrev := s.h[lane*H : (lane+1)*H]
		cPrev := s.c[lane*H : (lane+1)*H]
		zx := s.zx[a*4*H : (a+1)*4*H]
		zh := s.zh[a*4*H : (a+1)*4*H]
		s.wx.mulLane(0, s.xs[a*In:(a+1)*In], zx, s.asm)
		s.wh.mulLane(0, hPrev, zh, s.asm)
		// Same association as Step: z[i] += zh[i] + B[i]. The pre-adds
		// are hoisted out of the gate loop so the sigmoid/tanh passes
		// run over contiguous quarters — 4 lanes per instruction when
		// the wide gate kernels are live, the same scalar calls per
		// element either way.
		for j, v := range zh {
			zx[j] += v + bias[j]
		}
		sigmoidLanes(zx[:2*H], zx[:2*H], wide)       // i and f (adjacent quarters)
		tanhLanes(zx[2*H:3*H], zx[2*H:3*H], wide)    // g
		sigmoidLanes(zx[3*H:4*H], zx[3*H:4*H], wide) // o
		for j := 0; j < H; j++ {
			// cNew = f*cPrev + i*g, exactly as Step associates it.
			cPrev[j] = zx[H+j]*cPrev[j] + zx[j]*zx[2*H+j]
		}
		hRow := s.hs[a*H : (a+1)*H]
		tanhLanes(hRow, cPrev, wide)
		for j := 0; j < H; j++ {
			hRow[j] = zx[3*H+j] * hRow[j]
		}
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

// batchLayer is one trunk layer of a BatchedStatefulModel: a fused
// batched state when the cell supports it, else per-lane fallback states.
type batchLayer struct {
	cell   Cell
	bc     BatchedCell // nil when the cell has no fused step (e.g. mlp)
	bs     BatchState
	states []CellState
}

// BatchedStatefulModel carries B independent recurrent streams ("lanes")
// of one trained model through fused steps: the batched counterpart of B
// StatefulModels sharing weights. One lane corresponds to one Mimic
// direction's packet stream; a step over k lanes does the work of k
// StatefulModel.Predict calls in one pass.
type BatchedStatefulModel struct {
	model  *Model
	pool   *Pool
	lanes  int
	layers []*batchLayer

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
		bl := &batchLayer{cell: c}
		if bc, ok := c.(BatchedCell); ok {
			bl.bc = bc
			bl.bs = bc.NewBatchState(lanes)
		} else {
			bl.states = make([]CellState, lanes)
			for i := range bl.states {
				bl.states[i] = c.FreshState()
			}
		}
		b.layers = append(b.layers, bl)
	}
	return b
}

// Model returns the wrapped model.
func (b *BatchedStatefulModel) Model() *Model { return b.model }

// Lanes returns the current lane count.
func (b *BatchedStatefulModel) Lanes() int { return b.lanes }

// Steps returns total inference steps across all lanes.
func (b *BatchedStatefulModel) Steps() uint64 {
	var total uint64
	for _, s := range b.LaneSteps {
		total += s
	}
	return total
}

// AddLane appends a fresh zero-state lane and returns its index.
func (b *BatchedStatefulModel) AddLane() int {
	for _, bl := range b.layers {
		if bl.bc != nil {
			bl.bc.GrowBatchState(bl.bs)
		} else {
			bl.states = append(bl.states, bl.cell.FreshState())
		}
	}
	b.LaneSteps = append(b.LaneSteps, 0)
	b.lanes++
	return b.lanes - 1
}

// ResetLane zeroes one lane's recurrent state (its step count persists,
// mirroring StatefulModel.Reset).
func (b *BatchedStatefulModel) ResetLane(lane int) {
	for _, bl := range b.layers {
		if bl.bc != nil {
			bl.bc.ResetBatchLane(bl.bs, lane)
		} else {
			bl.states[lane] = bl.cell.FreshState()
		}
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
	for _, bl := range b.layers {
		h := bl.cell.HiddenSize()
		if bl.bc != nil {
			bl.bc.StepBatch(bl.bs, lanes, cur[:n*width], next[:n*h], b.pool)
		} else {
			for a, lane := range lanes {
				hv, _ := bl.cell.StepState(bl.states[lane], cur[a*width:(a+1)*width], false)
				copy(next[a*h:(a+1)*h], hv)
			}
		}
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

// PredictLane advances one lane and returns its prediction (a batch of
// one; bit-identical to StatefulModel.Predict on the same stream).
func (b *BatchedStatefulModel) PredictLane(lane int, x []float64) Prediction {
	var (
		lanes = [1]int{lane}
		xs    = [1][]float64{x}
		out   [1]Prediction
	)
	b.StepLanes(lanes[:], xs[:], nil, out[:])
	return out[0]
}

// AdvanceLane advances one lane's hidden state, discarding the output
// (the batched counterpart of StatefulModel.Advance).
func (b *BatchedStatefulModel) AdvanceLane(lane int, x []float64) {
	var (
		lanes = [1]int{lane}
		xs    = [1][]float64{x}
		skip  = [1]bool{false}
	)
	b.StepLanes(lanes[:], xs[:], skip[:], nil)
}

// headsRow computes the three heads without allocating. Each head value
// is Dot(W.row, h) + b — the same accumulation MulVec-based heads()
// produces — so batched and per-packet predictions are identical.
func (m *Model) headsRow(h []float64) Prediction {
	return Prediction{
		Latency: Sigmoid(Dot(m.LatHead.W.Data, h) + m.LatHead.B.Data[0]),
		PDrop:   Sigmoid(Dot(m.DropHead.W.Data, h) + m.DropHead.B.Data[0]),
		PECN:    Sigmoid(Dot(m.ECNHead.W.Data, h) + m.ECNHead.B.Data[0]),
	}
}
