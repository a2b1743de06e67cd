package ml

import (
	"context"
	"fmt"
	"math"
	"time"

	"mimicnet/internal/stats"
)

// This file implements the training half of the batched engine: minibatch
// BPTT for the trunk cells and heads. The forward pass is the lane
// banks' own: each layer keeps a batch state of its cell (the running
// state, the packed weights and the step scratch) and runs the cell's
// stepLane on it, so a model is trained on the forward pass it is served
// with (DESIGN.md decision 39). The backward pass is lane products
// (mulLanesT and addGradLanes; each fans out over the pool only above
// the dispatch floor, see pool.go), all on inference's row kernel
// (decisions 19, 20 and 36). Each layer reloads its weights and bias
// into its batch state once per minibatch, the only time they change,
// and the LSTM takes its weight gradients once per minibatch too, over
// every step's lanes.
// Every Range call hands the pool a worker bound to the trainer or a
// layer, so a warmed-up minibatch allocates nothing. One optimizer step
// is applied per batch to the mean-loss gradient; Adam and gradient
// clipping keep their exact per-update semantics.
//
// It is the only trainer: BatchSize 1 runs it at width 1, one optimizer
// step per sample. At width 1 it reproduces the per-sample scalar BPTT
// loop it replaced (kept in the tests) bit for bit for every trunk.
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
	// steps descending, then lanes ascending: the MLP takes its final
	// step's as it passes, the LSTM all of them in one product per weight
	// once step 0 has passed.
	backward(st, n int, dhIn, dx []float64)
}

// newTrainLayer picks the fused trainer for a cell. Every cell class a
// ModelConfig can name has one.
func newTrainLayer(c Cell, pool *Pool) trainLayer {
	switch l := c.(type) {
	case *lstm:
		return &lstmTrainLayer{l: l, pool: pool}
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
	t.gemm.addGradLanes(t.m.LatHead.W, t.dLat, n, hFin, t.pool)
	t.gemm.addGradLanes(t.m.DropHead.W, t.dDrop, n, hFin, t.pool)
	t.gemm.addGradLanes(t.m.ECNHead.W, t.dECN, n, hFin, t.pool)
	addBiasGradLanes(t.m.LatHead.B, t.dLat, n)
	addBiasGradLanes(t.m.DropHead.B, t.dDrop, n)
	addBiasGradLanes(t.m.ECNHead.B, t.dECN, n)
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
// lane banks' step per lane forward (lstmBatchState.stepLane), the
// backward products through the weights per step (mulLanesT for the
// input and recurrent gradients), and the weight and bias gradients once
// per minibatch (addGradLanes over every step's lanes).
type lstmTrainLayer struct {
	l    *lstm
	pool *Pool
	gemm laneGemm
	s    lstmBatchState // running h and c (n×H), this minibatch's weights, forward scratch

	n, steps int
	dh, dc   []float64 // recurrent gradient carry, n×H

	// Per-step caches in reversed step order — step st is slot
	// steps-1-st — so that the slots' lanes in order run steps
	// descending, then lanes ascending: the order the weight gradient
	// reduces in. Laid out slots × n × width.
	cx             []float64 // inputs, steps×n×In
	chPrev, ccPrev []float64 // steps×n×H
	gates          []float64 // i, f, g, o activations, steps×n×4H; backward overwrites a slot with its dz
	ctc            []float64 // tanh(c), steps×n×H

	// one step's arguments for the forward and gate workers
	slot     int
	hs, dhIn []float64
}

func (t *lstmTrainLayer) begin(n, steps int) {
	H, In := t.l.Hidden, t.l.In
	t.n, t.steps = n, steps
	t.s.load(t.l)
	t.s.size(n)
	t.s.h = growFloats(t.s.h, n*H)
	t.s.c = growFloats(t.s.c, n*H)
	t.dh = growFloats(t.dh, n*H)
	t.dc = growFloats(t.dc, n*H)
	t.cx = growFloats(t.cx, steps*n*In)
	t.chPrev = growFloats(t.chPrev, steps*n*H)
	t.ccPrev = growFloats(t.ccPrev, steps*n*H)
	t.gates = growFloats(t.gates, steps*n*4*H)
	t.ctc = growFloats(t.ctc, steps*n*H)
	zeroRange(t.s.h)
	zeroRange(t.s.c)
	zeroRange(t.dh[:n*H])
	zeroRange(t.dc[:n*H])
}

// forward caches step st's inputs and previous state in its slot, then
// runs the bank's step per lane.
func (t *lstmTrainLayer) forward(st, n int, xs, hs []float64) {
	H, In := t.l.Hidden, t.l.In
	t.slot, t.hs = t.steps-1-st, hs
	copy(t.cx[t.slot*n*In:(t.slot+1)*n*In], xs[:n*In])
	copy(t.chPrev[t.slot*n*H:(t.slot+1)*n*H], t.s.h[:n*H])
	copy(t.ccPrev[t.slot*n*H:(t.slot+1)*n*H], t.s.c[:n*H])
	t.pool.Range(n, t.l.stepCost(), lstmForward{t})
}

// lstmForward is the forward step over lanes [lo, hi): the bank's step
// on each lane's cached input, writing the gate activations and tanh(c)
// into the step's slot.
type lstmForward struct{ *lstmTrainLayer }

func (t lstmForward) RunRange(lo, hi int) {
	H, In := t.l.Hidden, t.l.In
	for a := lo; a < hi; a++ {
		k := t.slot*t.n + a
		t.s.stepLane(a, a, t.cx[k*In:(k+1)*In], t.gates[k*4*H:(k+1)*4*H], t.ctc[k*H:(k+1)*H], t.hs[a*H:(a+1)*H])
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
		t.gemm.mulLanesT(l.Wx, dz, n, dx, t.pool)
	}
	if st > 0 {
		// dh was consumed above; overwrite it with the carry for step st-1.
		t.gemm.mulLanesT(l.Wh, dz, n, t.dh, t.pool)
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
	t.gemm.addGradLanes(l.Wx, dz, lanes, t.cx[:lanes*In], t.pool)
	t.gemm.addGradLanes(l.Wh, dz, lanes, t.chPrev[:lanes*H], t.pool)
	addBiasGradLanes(l.B, dz, lanes)
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

// mlpTrainLayer trains the windowed-MLP baseline in fused form. The MLP
// is restricted to a single (top) layer and the heads read only the
// final step's output, so per-step evaluation is wasted work at train
// time: the layer buffers the window and runs the bank's evaluation
// (mlpBatchState.evalLane) once, at the final step. Non-final steps
// contribute no gradient (the layer has no recurrent path), so skipping
// them is exact, not an approximation.
type mlpTrainLayer struct {
	m    *windowMLP
	pool *Pool
	gemm laneGemm
	s    mlpBatchState // the lanes' windows (n × In·Window, zero rows in front), this minibatch's weights

	n, steps int
	h        []float64 // n×H final-step activations
	da       []float64 // n×H

	// the final step's arguments for the forward worker
	hs []float64
}

func (t *mlpTrainLayer) begin(n, steps int) {
	t.n, t.steps = n, steps
	t.s.load(t.m)
	t.s.size(n)
	FW := t.m.In * t.m.Window
	t.s.win = growFloats(t.s.win, n*FW)
	zeroRange(t.s.win)
	t.h = growFloats(t.h, n*t.m.Hidden)
	t.da = growFloats(t.da, n*t.m.Hidden)
}

func (t *mlpTrainLayer) forward(st, n int, xs, hs []float64) {
	In, W := t.m.In, t.m.Window
	// Step st of a steps-long stream lands in ring slot st+W-steps of
	// the final (front-padded) window; earlier steps fall off the ring.
	slot := st + W - t.steps
	if slot < 0 {
		return
	}
	for a := 0; a < n; a++ {
		copy(t.s.win[a*In*W+slot*In:a*In*W+(slot+1)*In], xs[a*In:(a+1)*In])
	}
	if st != t.steps-1 {
		return
	}
	t.hs = hs
	t.pool.Range(n, t.m.stepCost(), mlpForward{t})
}

// mlpForward evaluates the final window of lanes [lo, hi).
type mlpForward struct{ *mlpTrainLayer }

func (t mlpForward) RunRange(lo, hi int) {
	H, fw := t.m.Hidden, t.m.In*t.m.Window
	for a := lo; a < hi; a++ {
		row := t.h[a*H : (a+1)*H]
		t.s.evalLane(a, t.s.win[a*fw:(a+1)*fw], row)
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
	t.gemm.addGradLanes(t.m.W, t.da, n, t.s.win, t.pool)
	addBiasGradLanes(t.m.B, t.da, n)
}
