package ml

import (
	"context"
	"fmt"
	"math"
	"time"

	"mimicnet/internal/stats"
)

// This file implements the training half of the batched engine: minibatch
// BPTT for the trunk cells and heads, expressed as lane products
// (mulLanes for forward, mulLanesT / addGradLanes for backward; each fans
// out over the pool only above the dispatch floor, see pool.go), all on
// inference's row kernel (DESIGN.md decisions 19, 20 and 36). Each layer
// repacks its weights once per minibatch, the only time they change, and
// the LSTM takes its weight gradients once per minibatch too, over every
// step's lanes.
// Every Range call hands the pool a worker bound to the trainer or a
// layer, so a warmed-up minibatch allocates nothing. One optimizer step
// is applied per batch to the mean-loss gradient; Adam and gradient
// clipping keep their exact per-update semantics.
//
// It is the only trainer: BatchSize 1 runs it at width 1, one optimizer
// step per sample. At width 1 it reproduces the per-sample scalar BPTT
// loop it replaced (kept in the tests) bit for bit for the LSTM and MLP
// trunks; the GRU differs in the association of two sums (DESIGN.md
// decision 22).
//
// Determinism contract: for a fixed seed and batch size training is
// bitwise reproducible run to run and across worker counts: every
// gradient element is reduced over lanes in a fixed ascending order by
// exactly one chunk (see addGradLanes), and sample order is a
// seed-derived shuffle.

// defaultBatchSize is the minibatch width used when ModelConfig.BatchSize
// is zero.
const defaultBatchSize = 16

// batchSize resolves the effective minibatch width.
func (c ModelConfig) batchSize() int {
	if c.BatchSize == 0 {
		return defaultBatchSize
	}
	return c.BatchSize
}

// TrainProgress is a live report emitted after each finished epoch.
type TrainProgress struct {
	Epoch         int     `json:"epoch"` // 1-based, just finished
	Epochs        int     `json:"epochs"`
	Loss          float64 `json:"loss"` // mean per-sample loss of the epoch
	Samples       int     `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	BatchSize     int     `json:"batch_size"`
}

// TrainOpts bundles optional training controls for TrainContext.
type TrainOpts struct {
	// Progress, when non-nil, receives one report per finished epoch.
	Progress func(TrainProgress)

	// SaveCheckpoint, when non-nil, is offered a resumable cursor after
	// every completed epoch, the last one included (so a finished
	// direction restores instantly); it decides which to persist. A save
	// error aborts training: a caller asking for durability must not
	// silently lose it.
	SaveCheckpoint func(*TrainCheckpoint) error
	// ResumeFrom, when non-nil, restores weights, optimizer moments,
	// shuffle permutation, and RNG position before the first epoch, then
	// continues at ResumeFrom.Epoch. The resumed run is bitwise
	// identical to one that was never interrupted.
	ResumeFrom *TrainCheckpoint
}

// fit is the training loop behind Train/TrainContext: shuffle each epoch
// with rng, run forward+backward per batch, clip, and apply one optimizer
// step per batch.
func (m *Model) fit(ctx context.Context, lr float64, rng *stats.Stream, src SampleSource, epochs int, opts TrainOpts) (TrainResult, error) {
	params := m.Params()
	count := src.Len()
	res := TrainResult{Samples: count}
	B := m.Cfg.batchSize()
	bt := newMiniBatchTrainer(m, SharedPool())
	// A batch update sees the mean gradient over B samples — lower
	// variance and B× fewer steps per epoch than one step per sample.
	// Scale the Adam step size by √B (the usual Adam batch scaling) so
	// per-epoch convergence tracks the per-sample rate; Adam's update
	// rule itself is untouched, and width 1 keeps lr exactly.
	lr *= math.Sqrt(float64(B))
	opt := newAdam(lr)
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	startEpoch := 0
	if ck := opts.ResumeFrom; ck != nil {
		// Weights were restored by TrainContext; rebuild the loop-local
		// state here so the continuation replays the exact trajectory.
		if ck.Epoch > epochs {
			return res, fmt.Errorf("ml: resume epoch %d beyond %d", ck.Epoch, epochs)
		}
		copy(idx, ck.Idx)
		if err := opt.SetState(params, ck.Opt); err != nil {
			return res, err
		}
		res.EpochLoss = append(res.EpochLoss, ck.EpochLoss...)
		startEpoch = ck.Epoch
	}
	for epoch := startEpoch; epoch < epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum float64
		for lo := 0; lo < len(idx); lo += B {
			if err := ctx.Err(); err != nil {
				// Stop only at optimizer-step boundaries: parameters
				// hold the last fully applied update. Drop the pending
				// gradients so a later fit on this model starts clean.
				for _, p := range params {
					p.ZeroGrad()
				}
				return res, err
			}
			sum += bt.trainBatch(src, idx[lo:min(lo+B, len(idx))])
			if m.Cfg.ClipNorm > 0 {
				clipGrads(params, m.Cfg.ClipNorm)
			}
			opt.Step(params)
		}
		if count > 0 {
			obsTrainEpochs.Inc()
			obsTrainSamples.Add(uint64(count))
			obsTrainBatches.Add(uint64((count + B - 1) / B))
			loss := sum / float64(count)
			res.EpochLoss = append(res.EpochLoss, loss)
			if opts.Progress != nil {
				sps := 0.0
				if d := time.Since(start).Seconds(); d > 0 {
					sps = float64(count) / d
				}
				opts.Progress(TrainProgress{
					Epoch: epoch + 1, Epochs: epochs, Loss: loss,
					Samples: count, SamplesPerSec: sps, BatchSize: B,
				})
			}
			if opts.SaveCheckpoint != nil {
				ck := m.captureCheckpoint(epoch+1, count, rng, idx, opt, res.EpochLoss)
				if err := opts.SaveCheckpoint(ck); err != nil {
					return res, fmt.Errorf("ml: checkpoint save at epoch %d: %w", epoch+1, err)
				}
			}
		}
	}
	return res, nil
}

// trainLayer is one trunk layer able to run fused minibatch training
// steps over n lanes (one lane = one sample of the batch).
type trainLayer interface {
	// begin resets recurrent state and sizes step caches for n lanes ×
	// steps. Buffers are reused across batches.
	begin(n, steps int)
	// forward advances step st: reads xs (n×In), writes hs (n×Hidden),
	// recording the activations backward needs.
	forward(st, n int, xs, hs []float64)
	// backward consumes dhIn — the gradient arriving at this step's
	// hidden output from the heads or the layer above (nil means zero) —
	// carries the recurrent gradient to step st-1 internally, and writes
	// the input gradient into dx (n×In) unless dx is nil. Steps run
	// descending. Parameter gradients are reduced in the fixed order
	// steps descending, then lanes ascending: the GRU and MLP accumulate
	// each step's as it passes, the LSTM all of them in one product per
	// weight once step 0 has passed.
	backward(st, n int, dhIn, dx []float64)
}

// newTrainLayer picks the fused trainer for a cell. Every cell class a
// ModelConfig can name has one.
func newTrainLayer(c Cell, pool *Pool) trainLayer {
	switch l := c.(type) {
	case *lstm:
		return &lstmTrainLayer{l: l, pool: pool}
	case *gru:
		return &gruTrainLayer{g: l, pool: pool}
	case *windowMLP:
		return &mlpTrainLayer{m: l, pool: pool}
	}
	panic(fmt.Sprintf("ml: no minibatch trainer for cell %T", c))
}

// miniBatchTrainer runs fused forward+backward passes for whole
// minibatches, accumulating the mean-loss gradient into the model's
// parameter Grad buffers (the caller clips and applies the optimizer).
type miniBatchTrainer struct {
	m      *Model
	pool   *Pool
	layers []trainLayer
	gemm   laneGemm // the heads' weight-gradient products

	bufA, bufB        []float64   // dense activations, n × max width
	dxBufs            [][]float64 // per layer ≥ 1, n × InSize
	dOut              []float64   // n×H gradient at the trunk output
	dLat, dDrop, dECN []float64   // per-lane head logit gradients
}

func newMiniBatchTrainer(m *Model, pool *Pool) *miniBatchTrainer {
	t := &miniBatchTrainer{m: m, pool: pool, dxBufs: make([][]float64, len(m.Trunk))}
	for _, c := range m.Trunk {
		t.layers = append(t.layers, newTrainLayer(c, pool))
	}
	return t
}

// trainBatch runs one fused forward+backward over the samples selected
// by idx, accumulates parameter gradients for the mean loss of the
// batch, and returns the summed (unscaled) per-sample loss. Lanes
// gather their window rows straight from the source — for a columnar
// view that is a copy out of the shared flat matrix, no per-sample
// window structure ever exists.
func (t *miniBatchTrainer) trainBatch(src SampleSource, idx []int) float64 {
	n := len(idx)
	steps := src.Steps()
	cfg := &t.m.Cfg
	width := cfg.Features
	H := cfg.Hidden
	maxW := max(width, H)
	t.bufA = growFloats(t.bufA, n*maxW)
	t.bufB = growFloats(t.bufB, n*maxW)
	for li, tl := range t.layers {
		tl.begin(n, steps)
		if li > 0 {
			t.dxBufs[li] = growFloats(t.dxBufs[li], n*t.m.Trunk[li].InSize())
		}
	}

	// Forward: lockstep over steps, bottom to top. Each layer caches its
	// own inputs, so the double buffers can be reused immediately.
	var out []float64
	for st := 0; st < steps; st++ {
		cur, next := t.bufA, t.bufB
		for a, i := range idx {
			copy(cur[a*width:(a+1)*width], src.Row(i, st))
		}
		for _, tl := range t.layers {
			tl.forward(st, n, cur, next)
			cur, next = next, cur
		}
		out = cur
	}

	// Heads and losses, per lane in ascending order (serial: the loss
	// sum and bias gradients are scalar reductions over lanes).
	t.dLat = growFloats(t.dLat, n)
	t.dDrop = growFloats(t.dDrop, n)
	t.dECN = growFloats(t.dECN, n)
	t.dOut = growFloats(t.dOut, n*H)
	invB := 1 / float64(n)
	var sum float64
	for a, i := range idx {
		latTarget, dropped, ecn := src.Target(i)
		pred := t.m.headsRow(out[a*H : (a+1)*H])
		dropTarget, ecnTarget := 0.0, 0.0
		if dropped {
			dropTarget = 1
		}
		if ecn {
			ecnTarget = 1
		}
		latLoss, dLat := cfg.LatLoss.Eval(pred.Latency, latTarget, cfg.HuberDelta)
		var dropLoss, dDrop float64
		if cfg.DropWeight > 0 {
			dropLoss, dDrop = wbce(pred.PDrop, dropTarget, cfg.DropWeight)
		} else {
			dropLoss, dDrop = bce(pred.PDrop, dropTarget)
		}
		ecnLoss, dECN := bce(pred.PECN, ecnTarget)
		sum += cfg.LatWeight*latLoss + cfg.DropLossW*dropLoss + cfg.ECNLossW*ecnLoss
		// Mean-loss gradient: scaling the logit gradients by 1/n scales
		// every downstream parameter gradient linearly.
		t.dLat[a] = invB * cfg.LatWeight * dLat * dSigmoid(pred.Latency)
		t.dDrop[a] = invB * cfg.DropLossW * dDrop * dSigmoid(pred.PDrop)
		t.dECN[a] = invB * cfg.ECNLossW * dECN * dSigmoid(pred.PECN)
	}
	hFin := out[:n*H]
	t.gemm.addGradLanes(t.m.LatHead.W, 0, 1, t.dLat, 1, n, hFin, t.pool)
	t.gemm.addGradLanes(t.m.DropHead.W, 0, 1, t.dDrop, 1, n, hFin, t.pool)
	t.gemm.addGradLanes(t.m.ECNHead.W, 0, 1, t.dECN, 1, n, hFin, t.pool)
	addBiasGradLanes(t.m.LatHead.B, 0, 1, t.dLat, 1, n)
	addBiasGradLanes(t.m.DropHead.B, 0, 1, t.dDrop, 1, n)
	addBiasGradLanes(t.m.ECNHead.B, 0, 1, t.dECN, 1, n)
	t.pool.Range(n, 3*H, t) // dOut
	dOut := t.dOut[:n*H]

	// Backward: steps descending, layers top to bottom (BPTT). dOut enters the top layer at the final
	// step only; each layer's dx feeds the layer below's dhIn.
	for st := steps - 1; st >= 0; st-- {
		var dhIn []float64
		if st == steps-1 {
			dhIn = dOut
		}
		for li := len(t.layers) - 1; li >= 0; li-- {
			var dx []float64
			if li > 0 {
				dx = t.dxBufs[li]
			}
			t.layers[li].backward(st, n, dhIn, dx)
			dhIn = dx
		}
	}
	return sum
}

// RunRange computes dOut = Σ_heads Wᵀ·dLogit for lanes [lo, hi).
func (t *miniBatchTrainer) RunRange(lo, hi int) {
	H := t.m.Cfg.Hidden
	latW := t.m.LatHead.W.Data[:H]
	dropW := t.m.DropHead.W.Data[:H]
	ecnW := t.m.ECNHead.W.Data[:H]
	for a := lo; a < hi; a++ {
		row := t.dOut[a*H : (a+1)*H]
		dl, dd, de := t.dLat[a], t.dDrop[a], t.dECN[a]
		for c := range row {
			row[c] = latW[c]*dl + dropW[c]*dd + ecnW[c]*de
		}
	}
}

// lstmTrainLayer runs fused minibatch BPTT for one LSTM layer: the
// inference stepBatch's two products per step as mulLanes products, the
// backward products through the weights per step (mulLanesT for the
// input and recurrent gradients), and the weight and bias gradients once
// per minibatch (addGradLanes over every step's lanes).
type lstmTrainLayer struct {
	l    *lstm
	pool *Pool
	gemm laneGemm

	n, steps int
	wx, wh   packedRows // this minibatch's Wx and Wh, k-major
	h, c     []float64  // running state, n×H
	dh, dc   []float64  // recurrent gradient carry, n×H
	zx, zh   []float64  // forward step scratch, n×4H

	// Per-step caches in reversed step order — step st is slot
	// steps-1-st — so that the slots' lanes in order run steps
	// descending, then lanes ascending: the order the weight gradient
	// reduces in. Laid out slots × n × width.
	cx             []float64 // inputs, steps×n×In
	chPrev, ccPrev []float64 // steps×n×H
	gates          []float64 // i, f, g, o activations, steps×n×4H; backward overwrites a slot with its dz
	ctc            []float64 // tanh(c), steps×n×H

	// one step's arguments for the gate workers
	slot     int
	hs, dhIn []float64
}

func (t *lstmTrainLayer) begin(n, steps int) {
	H, In := t.l.Hidden, t.l.In
	t.n, t.steps = n, steps
	t.wx.pack(t.l.Wx)
	t.wh.pack(t.l.Wh)
	t.h = growFloats(t.h, n*H)
	t.c = growFloats(t.c, n*H)
	t.dh = growFloats(t.dh, n*H)
	t.dc = growFloats(t.dc, n*H)
	t.zx = growFloats(t.zx, n*4*H)
	t.zh = growFloats(t.zh, n*4*H)
	t.cx = growFloats(t.cx, steps*n*In)
	t.chPrev = growFloats(t.chPrev, steps*n*H)
	t.ccPrev = growFloats(t.ccPrev, steps*n*H)
	t.gates = growFloats(t.gates, steps*n*4*H)
	t.ctc = growFloats(t.ctc, steps*n*H)
	zeroRange(t.h[:n*H])
	zeroRange(t.c[:n*H])
	zeroRange(t.dh[:n*H])
	zeroRange(t.dc[:n*H])
}

func (t *lstmTrainLayer) forward(st, n int, xs, hs []float64) {
	l := t.l
	H, In := l.Hidden, l.In
	t.slot, t.hs = t.steps-1-st, hs
	copy(t.cx[t.slot*n*In:(t.slot+1)*n*In], xs[:n*In])
	copy(t.chPrev[t.slot*n*H:(t.slot+1)*n*H], t.h[:n*H])
	copy(t.ccPrev[t.slot*n*H:(t.slot+1)*n*H], t.c[:n*H])
	t.gemm.mulLanes(l.Wx, &t.wx, 0, 4*H, xs, n, t.zx, 4*H, false, t.pool)
	t.gemm.mulLanes(l.Wh, &t.wh, 0, 4*H, t.h, n, t.zh, 4*H, true, t.pool)
	t.pool.Range(n, 5*H*gateMulAdds, lstmGates{t})
	copy(t.h[:n*H], hs[:n*H])
}

// lstmGates is the forward gate pass of one step over lanes [lo, hi).
type lstmGates struct{ *lstmTrainLayer }

func (t lstmGates) RunRange(lo, hi int) {
	H, wide := t.l.Hidden, useWideGates
	base := t.slot * t.n
	bias := t.l.B.Data
	for a := lo; a < hi; a++ {
		zx := t.zx[a*4*H : (a+1)*4*H]
		zh := t.zh[a*4*H : (a+1)*4*H]
		// The reference association z[i] += zh[i] + B[i]; the gate
		// activations land directly in the step's slot of the gate
		// cache, 4 lanes per instruction when the wide gate kernels are
		// live.
		addSumLanes(zx, zh, bias, wide)
		g := t.gates[(base+a)*4*H : (base+a+1)*4*H]
		ctc := t.ctc[(base+a)*H : (base+a+1)*H]
		sigmoidLanes(g[:2*H], zx[:2*H], wide) // i and f (adjacent quarters)
		tanhLanes(g[2*H:3*H], zx[2*H:3*H], wide)
		sigmoidLanes(g[3*H:], zx[3*H:4*H], wide)
		cRow := t.c[a*H : (a+1)*H]
		hRow := t.hs[a*H : (a+1)*H]
		// cNew = f*cPrev + i*g, the reference association.
		cellLanes(cRow, g[H:2*H], g[:H], g[2*H:3*H], wide)
		tanhLanes(ctc, cRow, wide)
		prodLanes(hRow, g[3*H:], ctc, wide)
	}
}

// backward runs step st's gate gradients and its products through the
// weights, then, after step 0, the minibatch's weight gradients.
func (t *lstmTrainLayer) backward(st, n int, dhIn, dx []float64) {
	t.backwardStep(st, n, dhIn, dx)
	if st == 0 {
		t.addWeightGrads()
	}
}

// backwardStep turns step st's gate activations into its dz, in place,
// and carries the gradient through the weights: into dx unless it is
// nil, and into dh for step st-1. Step 0 has no step before it (begin
// zeroes dh for the next minibatch), so it carries nothing.
func (t *lstmTrainLayer) backwardStep(st, n int, dhIn, dx []float64) {
	l := t.l
	H := l.Hidden
	t.slot, t.dhIn = t.steps-1-st, dhIn
	t.pool.Range(n, 16*H, lstmGateGrads{t})
	dz := t.gates[t.slot*n*4*H : (t.slot+1)*n*4*H]
	if dx != nil {
		t.gemm.mulLanesT(l.Wx, 0, 4*H, dz, 4*H, n, dx, t.pool)
	}
	if st > 0 {
		// dh was consumed above; overwrite it with the carry for step st-1.
		t.gemm.mulLanesT(l.Wh, 0, 4*H, dz, 4*H, n, t.dh, t.pool)
	}
}

// addWeightGrads accumulates the weight and bias gradients of the whole
// minibatch, one product each over its steps×n lanes: every slot holds
// its step's dz once backward has passed step 0. The slots' reversed
// step order makes each element's chain the per-step one — steps
// descending, lanes ascending, exact-zero d skipped — in one walk.
func (t *lstmTrainLayer) addWeightGrads() {
	l := t.l
	H, In := l.Hidden, l.In
	lanes := t.steps * t.n
	dz := t.gates[:lanes*4*H]
	t.gemm.addGradLanes(l.Wx, 0, 4*H, dz, 4*H, lanes, t.cx[:lanes*In], t.pool)
	t.gemm.addGradLanes(l.Wh, 0, 4*H, dz, 4*H, lanes, t.chPrev[:lanes*H], t.pool)
	addBiasGradLanes(l.B, 0, 4*H, dz, 4*H, lanes)
}

// lstmGateGrads turns one step's hidden and cell gradients into the gate
// pre-activation gradients dz and the cell carry, over lanes [lo, hi).
// Each lane's dz overwrites its gate activations in the step's slot:
// element j of each quarter is read before it is written, and nothing
// reads the activations again.
type lstmGateGrads struct{ *lstmTrainLayer }

func (t lstmGateGrads) RunRange(lo, hi int) {
	H := t.l.Hidden
	base := t.slot * t.n
	for a := lo; a < hi; a++ {
		var dhIn []float64
		if t.dhIn != nil {
			dhIn = t.dhIn[a*H : (a+1)*H]
		}
		k := (base + a) * H
		lstmGateGradLanes(t.gates[4*k:4*(k+H)], t.dh[a*H:(a+1)*H], dhIn,
			t.dc[a*H:(a+1)*H], t.ctc[k:k+H], t.ccPrev[k:k+H])
	}
}

// gruTrainLayer runs fused minibatch BPTT for one GRU layer. The
// candidate pre-activation consumes r⊙h, so each step needs a third
// product after the gate pass (exactly like the inference stepBatch).
type gruTrainLayer struct {
	g    *gru
	pool *Pool
	gemm laneGemm

	n, steps int
	wx, wh   packedRows // this minibatch's Wx and Wh, k-major
	h        []float64  // running state, n×H
	dh       []float64  // recurrent gradient carry, n×H
	ax, ac   []float64  // pre-activation scratch, n×3H
	da       []float64  // pre-activation gradients, n×3H
	drh      []float64  // gradient at r⊙h, n×H
	dhAcc    []float64  // dhPrev accumulator, n×H
	scr      []float64  // mulLanesT scratch, n×H

	cx                       []float64 // steps×n×In
	chPrev, cz, cr, chh, crh []float64 // steps×n×H

	// one step's arguments for the gate workers
	base     int // st·n·H, the step's offset into the caches
	hs, dhIn []float64
}

func (t *gruTrainLayer) begin(n, steps int) {
	H, In := t.g.Hidden, t.g.In
	t.n, t.steps = n, steps
	t.wx.pack(t.g.Wx)
	t.wh.pack(t.g.Wh)
	t.h = growFloats(t.h, n*H)
	t.dh = growFloats(t.dh, n*H)
	t.ax = growFloats(t.ax, n*3*H)
	t.ac = growFloats(t.ac, n*3*H)
	t.da = growFloats(t.da, n*3*H)
	t.drh = growFloats(t.drh, n*H)
	t.dhAcc = growFloats(t.dhAcc, n*H)
	t.scr = growFloats(t.scr, n*H)
	t.cx = growFloats(t.cx, steps*n*In)
	t.chPrev = growFloats(t.chPrev, steps*n*H)
	t.cz = growFloats(t.cz, steps*n*H)
	t.cr = growFloats(t.cr, steps*n*H)
	t.chh = growFloats(t.chh, steps*n*H)
	t.crh = growFloats(t.crh, steps*n*H)
	zeroRange(t.h[:n*H])
	zeroRange(t.dh[:n*H])
}

func (t *gruTrainLayer) forward(st, n int, xs, hs []float64) {
	g := t.g
	H, In := g.Hidden, g.In
	copy(t.cx[st*n*In:(st+1)*n*In], xs[:n*In])
	t.base, t.hs = st*n*H, hs
	copy(t.chPrev[t.base:t.base+n*H], t.h[:n*H])
	t.gemm.mulLanes(g.Wx, &t.wx, 0, 3*H, xs, n, t.ax, 3*H, false, t.pool)
	t.gemm.mulLanes(g.Wh, &t.wh, 0, 2*H, t.h, n, t.ac, 3*H, true, t.pool)
	t.pool.Range(n, 2*H*gateMulAdds, gruGates{t})
	// Candidate recurrent pre-activation over r⊙h (must follow r).
	t.gemm.mulLanes(g.Wh, &t.wh, 2*H, 3*H, t.crh[t.base:t.base+n*H], n, t.ac, 3*H, true, t.pool)
	t.pool.Range(n, H*gateMulAdds, gruCandidate{t})
	copy(t.h[:n*H], hs[:n*H])
}

// gruGates is the z and r gate pass of one step over lanes [lo, hi).
type gruGates struct{ *gruTrainLayer }

func (t gruGates) RunRange(lo, hi int) {
	H, base, wide := t.g.Hidden, t.base, useWideGates
	bias := t.g.B.Data
	for a := lo; a < hi; a++ {
		ax := t.ax[a*3*H : (a+1)*3*H]
		ac := t.ac[a*3*H : (a+1)*3*H]
		// The reference ax + ac + bias association; z and r land
		// directly in the per-step caches.
		for j := 0; j < 2*H; j++ {
			ax[j] = ax[j] + ac[j] + bias[j]
		}
		cz := t.cz[base+a*H : base+(a+1)*H]
		cr := t.cr[base+a*H : base+(a+1)*H]
		crh := t.crh[base+a*H : base+(a+1)*H]
		sigmoidLanes(cz, ax[:H], wide)
		sigmoidLanes(cr, ax[H:2*H], wide)
		hRow := t.h[a*H : (a+1)*H]
		for j := 0; j < H; j++ {
			crh[j] = cr[j] * hRow[j]
		}
	}
}

// gruCandidate is the candidate and state update of one step over lanes
// [lo, hi).
type gruCandidate struct{ *gruTrainLayer }

func (t gruCandidate) RunRange(lo, hi int) {
	H, base, wide := t.g.Hidden, t.base, useWideGates
	bias := t.g.B.Data
	for a := lo; a < hi; a++ {
		ax := t.ax[a*3*H : (a+1)*3*H]
		ac := t.ac[a*3*H : (a+1)*3*H]
		chh := t.chh[base+a*H : base+(a+1)*H]
		for j := 0; j < H; j++ {
			chh[j] = ax[2*H+j] + ac[2*H+j] + bias[2*H+j]
		}
		tanhLanes(chh, chh, wide)
		cz := t.cz[base+a*H : base+(a+1)*H]
		hRow := t.h[a*H : (a+1)*H]
		hsRow := t.hs[a*H : (a+1)*H]
		for j := 0; j < H; j++ {
			hsRow[j] = (1-cz[j])*hRow[j] + cz[j]*chh[j]
		}
	}
}

func (t *gruTrainLayer) backward(st, n int, dhIn, dx []float64) {
	g := t.g
	H, In := g.Hidden, g.In
	t.base, t.dhIn = st*n*H, dhIn
	t.pool.Range(n, 8*H, gruUpdateGrads{t})
	// Gradient at r⊙h through the candidate rows of Wh.
	t.gemm.mulLanesT(g.Wh, 2*H, 3*H, t.da, 3*H, n, t.drh, t.pool)
	t.pool.Range(n, 4*H, gruResetGrads{t})
	t.gemm.addGradLanes(g.Wx, 0, 3*H, t.da, 3*H, n, t.cx[st*n*In:(st+1)*n*In], t.pool)
	// Wh rows for z and r consume hPrev; candidate rows consume r⊙h.
	t.gemm.addGradLanes(g.Wh, 0, 2*H, t.da, 3*H, n, t.chPrev[t.base:t.base+n*H], t.pool)
	t.gemm.addGradLanes(g.Wh, 2*H, 3*H, t.da, 3*H, n, t.crh[t.base:t.base+n*H], t.pool)
	addBiasGradLanes(g.B, 0, 3*H, t.da, 3*H, n)
	if st > 0 { // step 0 has no step before it to carry to
		t.gemm.mulLanesT(g.Wh, 0, 2*H, t.da, 3*H, n, t.scr, t.pool)
		for i, v := range t.dhAcc[:n*H] {
			t.dh[i] = v + t.scr[i] // the carry to step st-1
		}
	}
	if dx != nil {
		t.gemm.mulLanesT(g.Wx, 0, 3*H, t.da, 3*H, n, dx, t.pool)
	}
}

// gruUpdateGrads computes the update-gate and candidate pre-activation
// gradients and the direct part of dhPrev over lanes [lo, hi).
type gruUpdateGrads struct{ *gruTrainLayer }

func (t gruUpdateGrads) RunRange(lo, hi int) {
	H, base, dhIn := t.g.Hidden, t.base, t.dhIn
	for a := lo; a < hi; a++ {
		for j := 0; j < H; j++ {
			k := base + a*H + j
			dhv := t.dh[a*H+j]
			if dhIn != nil {
				dhv += dhIn[a*H+j]
			}
			// h' = (1-z)·h + z·ĥ.
			z, hHat, hPrev := t.cz[k], t.chh[k], t.chPrev[k]
			dz := dhv * (hHat - hPrev)
			t.da[a*3*H+j] = dz * dSigmoid(z)
			t.da[a*3*H+2*H+j] = dhv * z * dTanh(hHat)
			t.dhAcc[a*H+j] = dhv * (1 - z)
		}
	}
}

// gruResetGrads computes the reset-gate pre-activation gradient from the
// gradient at r⊙h over lanes [lo, hi).
type gruResetGrads struct{ *gruTrainLayer }

func (t gruResetGrads) RunRange(lo, hi int) {
	H, base := t.g.Hidden, t.base
	for a := lo; a < hi; a++ {
		for j := 0; j < H; j++ {
			k := base + a*H + j
			dr := t.drh[a*H+j] * t.chPrev[k]
			t.da[a*3*H+H+j] = dr * dSigmoid(t.cr[k])
			t.dhAcc[a*H+j] += t.drh[a*H+j] * t.cr[k]
		}
	}
}

// mlpTrainLayer trains the windowed-MLP baseline in fused form. The MLP
// is restricted to a single (top) layer and the heads read only the
// final step's output, so per-step evaluation is wasted work at train
// time: the layer buffers the window and runs one product at the final
// step. Non-final steps contribute no gradient (the layer has no
// recurrent path), so skipping them is exact, not an approximation.
type mlpTrainLayer struct {
	m    *windowMLP
	pool *Pool
	gemm laneGemm

	n, steps int
	w        packedRows // this minibatch's W, k-major
	flat     []float64  // n × In·Window, zero rows in front like the inference window
	h        []float64  // n×H final-step activations
	da       []float64  // n×H

	// the final step's arguments for the activation worker
	hs []float64
}

func (t *mlpTrainLayer) begin(n, steps int) {
	t.n, t.steps = n, steps
	t.w.pack(t.m.W)
	FW := t.m.In * t.m.Window
	t.flat = growFloats(t.flat, n*FW)
	zeroRange(t.flat[:n*FW])
	t.h = growFloats(t.h, n*t.m.Hidden)
	t.da = growFloats(t.da, n*t.m.Hidden)
}

func (t *mlpTrainLayer) forward(st, n int, xs, hs []float64) {
	In, W, H := t.m.In, t.m.Window, t.m.Hidden
	// Step st of a steps-long stream lands in ring slot st+W-steps of
	// the final (front-padded) window; earlier steps fall off the ring.
	slot := st + W - t.steps
	if slot < 0 {
		return
	}
	for a := 0; a < n; a++ {
		copy(t.flat[a*In*W+slot*In:a*In*W+(slot+1)*In], xs[a*In:(a+1)*In])
	}
	if st != t.steps-1 {
		return
	}
	t.gemm.mulLanes(t.m.W, &t.w, 0, H, t.flat, n, t.h, H, false, t.pool)
	t.hs = hs
	t.pool.Range(n, H*gateMulAdds, mlpActivate{t})
}

// mlpActivate adds the bias and applies tanh over lanes [lo, hi).
type mlpActivate struct{ *mlpTrainLayer }

func (t mlpActivate) RunRange(lo, hi int) {
	H, wide := t.m.Hidden, useWideGates
	bias := t.m.B.Data
	for a := lo; a < hi; a++ {
		row := t.h[a*H : (a+1)*H]
		for j := 0; j < H; j++ {
			row[j] += bias[j]
		}
		tanhLanes(row, row, wide)
		copy(t.hs[a*H:(a+1)*H], row)
	}
}

func (t *mlpTrainLayer) backward(st, n int, dhIn, _ []float64) {
	if st != t.steps-1 || dhIn == nil {
		return
	}
	H := t.m.Hidden
	for i, dh := range dhIn[:n*H] {
		t.da[i] = dh * dTanh(t.h[i]) // back through tanh
	}
	t.gemm.addGradLanes(t.m.W, 0, H, t.da, H, n, t.flat, t.pool)
	addBiasGradLanes(t.m.B, 0, H, t.da, H, n)
}
