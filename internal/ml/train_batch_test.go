package ml

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"mimicnet/internal/stats"
)

func cellConfigs() map[string]ModelConfig {
	lstm := DefaultModelConfig(3, 5)
	lstm.Hidden = 7
	lstm.Layers = 2
	mlp := lstm
	mlp.CellType = "mlp"
	mlp.Layers = 1
	return map[string]ModelConfig{"lstm": lstm, "mlp": mlp}
}

// TestBatchedGradMatchesSequential is the core correctness check of the
// minibatch trainer: for every trunk class, the fused batched
// forward+backward must produce (up to float reassociation) the same
// parameter gradients as averaging the scalar per-sample passes.
func TestBatchedGradMatchesSequential(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	for name, cfg := range cellConfigs() {
		t.Run(name, func(t *testing.T) {
			samples := synthSamples(9, cfg.Features, cfg.Window, 31)
			idx := make([]int, len(samples))
			for i := range idx {
				idx[i] = i
			}

			seq, _ := NewModel(cfg)
			for _, s := range samples {
				seq.trainStep(s)
			}
			// trainStep accumulates without stepping, so seq grads now
			// hold the sum over samples; the batched pass computes the
			// mean-loss gradient.
			scale := 1 / float64(len(samples))

			bat, _ := NewModel(cfg)
			bt := newMiniBatchTrainer(bat, pool)
			bt.trainBatch(samplesOf(samples), idx)

			sp, bp := seq.Params(), bat.Params()
			for pi := range sp {
				for gi := range sp[pi].Grad {
					want := sp[pi].Grad[gi] * scale
					got := bp[pi].Grad[gi]
					if diff := math.Abs(want - got); diff > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("param %d grad %d: batched %v vs sequential mean %v", pi, gi, got, want)
					}
				}
			}
		})
	}
}

// TestGenericTrainLayerMatchesFused pins the fused LSTM trainer layer to
// the per-sample cell API (genericTrainLayer): the minibatch gradients
// must be the sum of the per-sample ones.
func TestGenericTrainLayerMatchesFused(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	cfg := cellConfigs()["lstm"]
	samples := synthSamples(6, cfg.Features, cfg.Window, 17)
	idx := []int{0, 1, 2, 3, 4, 5}

	fused, _ := NewModel(cfg)
	bt := newMiniBatchTrainer(fused, pool)
	bt.trainBatch(samplesOf(samples), idx)

	gen, _ := NewModel(cfg)
	gt := newMiniBatchTrainer(gen, pool)
	for i := range gt.layers {
		gt.layers[i] = &genericTrainLayer{c: gen.Trunk[i].(scalarCell)}
	}
	gt.trainBatch(samplesOf(samples), idx)

	fp, gp := fused.Params(), gen.Params()
	for pi := range fp {
		for gi := range fp[pi].Grad {
			a, b := fp[pi].Grad[gi], gp[pi].Grad[gi]
			if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("param %d grad %d: fused %v vs generic %v", pi, gi, a, b)
			}
		}
	}
}

// TestTrainerForwardMatchesBank: a model is trained on the forward pass
// it is served with. For every trunk class, one and two layers where the
// cell stacks, the minibatch trainer's top-layer output at each step
// (the final one for the MLP, the only step its trainer evaluates)
// equals a lane bank's StepLanes over the same windows bit for bit, and
// so do the heads read from it — on inputs and biases holding ±0 and
// subnormals, under every kernel setting and every pool configuration.
func TestTrainerForwardMatchesBank(t *testing.T) {
	for _, tc := range []struct {
		cell   string
		layers int
	}{{"lstm", 1}, {"lstm", 2}, {"mlp", 1}} {
		t.Run(fmt.Sprintf("%s/layers=%d", tc.cell, tc.layers), func(t *testing.T) {
			model := parityModel(t, tc.cell, tc.layers)
			s := stats.NewStream(int64(7 * tc.layers))
			for _, c := range model.Trunk {
				for _, p := range c.Params() {
					if p.Cols == 1 { // the bias
						for i := range p.Data {
							p.Data[i] = laneValue(s, 0.8)
						}
					}
				}
			}
			const steps = 6
			F, H := model.Cfg.Features, model.Cfg.Hidden
			for _, kn := range kernelConfigs() {
				t.Run(kn.String(), func(t *testing.T) {
					setKernels(t, kn)
					forEachPool(t, func(t *testing.T, pool *Pool) {
						for _, n := range []int{1, 7, 16} {
							xs := make([][][]float64, steps)
							for st := range xs {
								xs[st] = make([][]float64, n)
								for a := range xs[st] {
									xs[st][a] = make([]float64, F)
									for k := range xs[st][a] {
										xs[st][a][k] = laneValue(s, 0.4)
									}
								}
							}
							lanes := make([]int, n)
							for a := range lanes {
								lanes[a] = a
							}
							bank := NewBatchedStatefulModel(model, n, pool)
							bt := newMiniBatchTrainer(model, pool)
							for _, tl := range bt.layers {
								tl.begin(n, steps)
							}
							bufA, bufB := make([]float64, n*max(F, H)), make([]float64, n*max(F, H))
							preds := make([]Prediction, n)
							for st := 0; st < steps; st++ {
								cur, next := bufA, bufB
								for a, x := range xs[st] {
									copy(cur[a*F:(a+1)*F], x)
								}
								for _, tl := range bt.layers {
									tl.forward(st, n, cur, next)
									cur, next = next, cur
								}
								bank.StepLanes(lanes, xs[st], nil, preds)
								if tc.cell == "mlp" && st != steps-1 {
									continue
								}
								want := bank.bufA
								if len(model.Trunk)%2 == 1 { // StepLanes swaps its buffers once per layer
									want = bank.bufB
								}
								for i, w := range want[:n*H] {
									if g := cur[i]; math.Float64bits(g) != math.Float64bits(w) {
										t.Fatalf("n=%d step %d lane %d unit %d: trainer %v (%#x), bank %v (%#x)",
											n, st, i/H, i%H, g, math.Float64bits(g), w, math.Float64bits(w))
									}
								}
								for a := range preds {
									got := model.headsRow(cur[a*H : (a+1)*H])
									for _, v := range [][2]float64{{got.Latency, preds[a].Latency}, {got.PDrop, preds[a].PDrop}, {got.PECN, preds[a].PECN}} {
										if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
											t.Fatalf("n=%d step %d lane %d: trainer heads %+v, bank %+v", n, st, a, got, preds[a])
										}
									}
								}
							}
						}
					})
				})
			}
		})
	}
}

// fitScalar is the per-sample training loop that BatchSize 1 selected
// before the minibatch trainer took that width: fit's shuffle stream, and
// per sample one reference trainStepWindow, clip and Adam step.
func (m *Model) fitScalar(src windowSource) {
	params := m.Params()
	rng := stats.NewStream(m.Cfg.Seed + 1)
	opt := newAdam(m.Cfg.LR)
	idx := make([]int, src.Len())
	for i := range idx {
		idx[i] = i
	}
	var win [][]float64
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			win = src.WindowAppend(win[:0], i)
			lat, dropped, ecn := src.Target(i)
			m.trainStepWindow(win, lat, dropped, ecn)
			if m.Cfg.ClipNorm > 0 {
				clipGrads(params, m.Cfg.ClipNorm)
			}
			opt.Step(params)
		}
	}
}

// TestWidthOneTrainerMatchesScalarLoop pins what BatchSize 1 means: the
// minibatch trainer at width 1 trains an artifact byte-identical to the
// per-sample scalar loop's, for every trunk class.
func TestWidthOneTrainerMatchesScalarLoop(t *testing.T) {
	for name, cfg := range cellConfigs() {
		cfg.BatchSize = 1
		cfg.Epochs = 2
		src := samplesOf(synthSamples(40, cfg.Features, cfg.Window, 7))
		a, _ := NewModel(cfg)
		a.Train(src)
		b, _ := NewModel(cfg)
		b.fitScalar(src)
		ja, _ := a.MarshalJSON()
		jb, _ := b.MarshalJSON()
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: width-1 minibatch artifact differs from the scalar loop's", name)
		}
	}
}

// TestBatchedTrainerDeterministic asserts the minibatch trainer's
// determinism contract: for a fixed seed and batch size, training is
// bitwise reproducible run to run and across pool worker counts and
// dispatch floors (inline at the production floor, forced fan-out at 0).
func TestBatchedTrainerDeterministic(t *testing.T) {
	for name, cfg := range cellConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.BatchSize = 8
			cfg.Epochs = 2
			samples := synthSamples(50, cfg.Features, cfg.Window, 41)
			train := func(pc poolConfig) (*Model, TrainResult) {
				m, _ := NewModel(cfg)
				pc.start(t) // TrainContext trains on the SharedPool start installs
				res, err := m.TrainContext(context.Background(), samplesOf(samples), TrainOpts{})
				if err != nil {
					t.Fatalf("TrainContext: %v", err)
				}
				return m, res
			}
			m1, r1 := train(poolConfig{1, dispatchFloor})
			for _, pc := range append([]poolConfig{{1, dispatchFloor}}, poolConfigs...) {
				m2, r2 := train(pc)
				for e := range r1.EpochLoss {
					if r1.EpochLoss[e] != r2.EpochLoss[e] {
						t.Fatalf("%v: epoch %d loss not reproducible: %v %v", pc, e, r1.EpochLoss[e], r2.EpochLoss[e])
					}
				}
				p1, p2 := m1.Params(), m2.Params()
				for pi := range p1 {
					for di := range p1[pi].Data {
						if p1[pi].Data[di] != p2[pi].Data[di] {
							t.Fatalf("%v: param %d elem %d differs from the one-worker run", pc, pi, di)
						}
					}
				}
			}
		})
	}
}

// TestBatchedSequentialParity trains the same architecture one sample
// per optimizer step (BatchSize 1) and sixteen (BatchSize 16) and
// requires both to land at comparable held-out quality. The trajectories
// differ by construction (B× fewer optimizer steps on averaged
// gradients), so this is a tolerance check, not bitwise.
func TestBatchedSequentialParity(t *testing.T) {
	cfg := DefaultModelConfig(2, 4)
	cfg.Hidden = 12
	cfg.Epochs = 8
	train := synthSamples(400, 2, 4, 11)
	held := synthSamples(120, 2, 4, 13)

	cfg.BatchSize = 1
	seq, _ := NewModel(cfg)
	seqRes := seq.Train(samplesOf(train))
	seqEval := seq.Evaluate(samplesOf(held))

	cfg.BatchSize = 16
	bat, _ := NewModel(cfg)
	batRes := bat.Train(samplesOf(train))
	batEval := bat.Evaluate(samplesOf(held))

	if last, first := seqRes.EpochLoss[cfg.Epochs-1], seqRes.EpochLoss[0]; last >= first {
		t.Errorf("sequential loss did not decrease: %v -> %v", first, last)
	}
	if last, first := batRes.EpochLoss[cfg.Epochs-1], batRes.EpochLoss[0]; last >= first {
		t.Errorf("batched loss did not decrease: %v -> %v", first, last)
	}
	if diff := math.Abs(seqEval.LatencyMAE - batEval.LatencyMAE); diff > 0.05 {
		t.Errorf("held-out LatencyMAE diverged: sequential %v vs batched %v", seqEval.LatencyMAE, batEval.LatencyMAE)
	}
	if diff := math.Abs(seqEval.DropRatePred - batEval.DropRatePred); diff > 0.1 {
		t.Errorf("held-out drop rate diverged: sequential %v vs batched %v", seqEval.DropRatePred, batEval.DropRatePred)
	}
}

// TestTrainContextCancellation covers the mid-train cancellation
// contract: prompt return at an optimizer-step boundary, no pending
// gradients left behind, and a model that keeps training cleanly
// afterwards.
func TestTrainContextCancellation(t *testing.T) {
	cfg := DefaultModelConfig(2, 4)
	cfg.Hidden = 8
	cfg.Epochs = 6
	samples := synthSamples(200, 2, 4, 23)

	t.Run("pre-cancelled", func(t *testing.T) {
		m, _ := NewModel(cfg)
		before := snapshotParams(m)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := m.TrainContext(ctx, samplesOf(samples), TrainOpts{})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(res.EpochLoss) != 0 {
			t.Fatalf("pre-cancelled training reported %d epochs", len(res.EpochLoss))
		}
		for pi, p := range m.Params() {
			for di := range p.Data {
				if p.Data[di] != before[pi][di] {
					t.Fatalf("param %d changed despite pre-cancelled ctx", pi)
				}
			}
		}
	})

	t.Run("mid-train", func(t *testing.T) {
		m, _ := NewModel(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		var epochs int
		res, err := m.TrainContext(ctx, samplesOf(samples), TrainOpts{Progress: func(p TrainProgress) {
			epochs++
			if p.Epoch == 2 {
				cancel()
			}
		}})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(res.EpochLoss) != 2 || epochs != 2 {
			t.Fatalf("cancelled after epoch 2, got %d epoch losses / %d callbacks", len(res.EpochLoss), epochs)
		}
		// Optimizer state must be consistent: all gradients dropped, all
		// parameters finite, and continued training works from here.
		for pi, p := range m.Params() {
			for gi, g := range p.Grad {
				if g != 0 {
					t.Fatalf("param %d grad %d = %v after cancel, want 0", pi, gi, g)
				}
			}
			for _, v := range p.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("param %d not finite after cancel", pi)
				}
			}
		}
		res2, err := m.TrainContext(context.Background(), samplesOf(samples), TrainOpts{})
		if err != nil || len(res2.EpochLoss) != cfg.Epochs {
			t.Fatalf("training after cancel: err=%v epochs=%d", err, len(res2.EpochLoss))
		}
	})
}

// TestMulLanesTMatchesMulVecT pins the batched backward GEMM to its
// per-vector reference.
func TestMulLanesTMatchesMulVecT(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	s := stats.NewStream(5)
	m := newMatrix(12, 7)
	m.InitXavier(s)
	n := 9
	dys := make([]float64, n*m.Rows)
	for i := range dys {
		dys[i] = s.NormFloat64()
	}
	out := make([]float64, n*m.Cols)
	m.MulLanesT(dys, n, out, pool)
	for a := 0; a < n; a++ {
		want := Zeros(m.Cols)
		for r := 0; r < m.Rows; r++ {
			d := dys[a*m.Rows+r]
			for c := 0; c < m.Cols; c++ {
				want[c] += m.Data[r*m.Cols+c] * d
			}
		}
		for c := range want {
			if got := out[a*m.Cols+c]; got != want[c] {
				t.Fatalf("lane %d col %d: %v != %v", a, c, got, want[c])
			}
		}
	}
}

// TestAddGradLanesMatchesAddOuterGrad pins the batched weight-gradient
// kernel to per-lane AddOuterGrad calls in ascending-lane order (the
// documented reduction order), including worker-count invariance.
func TestAddGradLanesMatchesAddOuterGrad(t *testing.T) {
	s := stats.NewStream(6)
	ref := newMatrix(10, 6)
	ref.InitXavier(s)
	n, stride := 11, 10
	dys := make([]float64, n*stride)
	xs := make([]float64, n*ref.Cols)
	for i := range dys {
		dys[i] = s.NormFloat64()
	}
	for i := range xs {
		xs[i] = s.NormFloat64()
	}
	for a := 0; a < n; a++ {
		ref.AddOuterGrad(dys[a*stride:a*stride+stride], xs[a*ref.Cols:(a+1)*ref.Cols])
	}
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		got := newMatrix(10, 6)
		copy(got.Data, ref.Data)
		got.AddGradLanes(dys, n, xs, pool)
		for i := range ref.Grad {
			if got.Grad[i] != ref.Grad[i] {
				t.Fatalf("workers=%d grad %d: %v != %v", workers, i, got.Grad[i], ref.Grad[i])
			}
		}
		pool.Close()
	}
}

// lstmStepOrderLayer is the LSTM trainer layer with its weight and
// bias gradients taken in the per-step order the minibatch trainer used
// before it deferred them to one product per minibatch: after each
// step's backward, one AddOuterGrad per lane in ascending lane order for
// Wx and Wh, and the lanes' dz added onto the bias gradient. It is the
// oracle TestLSTMGradOrderMatchesPerStep holds that product to.
type lstmStepOrderLayer struct{ *lstmTrainLayer }

func (t lstmStepOrderLayer) backward(st, n int, dhIn, dx []float64) {
	t.backwardStep(st, n, dhIn, dx)
	l := t.l
	H, In := l.Hidden, l.In
	for a := 0; a < n; a++ {
		lane := t.slot*n + a
		dz := t.gates[lane*4*H : (lane+1)*4*H]
		l.Wx.AddOuterGrad(dz, t.cx[lane*In:(lane+1)*In])
		l.Wh.AddOuterGrad(dz, t.chPrev[lane*H:(lane+1)*H])
		for r, d := range dz {
			l.B.Grad[r] += d
		}
	}
}

// TestLSTMGradOrderMatchesPerStep: the LSTM trainer's weight and bias
// gradients, one product per minibatch over every step's lanes, equal
// the per-step order (lstmStepOrderLayer) bit for bit, for a two-layer
// LSTM at 1, 2 and 12 steps and 1, 7 and 16 lanes. Each shape runs an
// ordinary batch, one from Grad buffers that start at -0, and one with
// zero head weights, so every dz is an exact zero of either sign,
// also from -0: there, taking a zero term instead of skipping it
// (-0 + +0 = +0) changes the result.
func TestLSTMGradOrderMatchesPerStep(t *testing.T) {
	pool := newPoolFloor(2, 0)
	defer pool.Close()
	for _, steps := range []int{1, 2, 12} {
		for _, n := range []int{1, 7, 16} {
			for _, tc := range []struct {
				name              string
				negZero, zeroHead bool
			}{{"plain", false, false}, {"-0 grads", true, false}, {"zero dz", false, true}, {"zero dz, -0 grads", true, true}} {
				cfg := DefaultModelConfig(5, steps)
				cfg.Hidden = 6
				cfg.Layers = 2
				cfg.Seed = int64(steps*100 + n)
				samples := samplesOf(synthSamples(n, cfg.Features, steps, int64(n)))
				idx := make([]int, n)
				for i := range idx {
					idx[i] = i
				}
				train := func(oracle bool) *Model {
					m, err := NewModel(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if tc.zeroHead {
						for _, head := range []*Matrix{m.LatHead.W, m.DropHead.W, m.ECNHead.W} {
							zeroRange(head.Data)
						}
					}
					if tc.negZero {
						for _, p := range m.Params() {
							for i := range p.Grad {
								p.Grad[i] = math.Copysign(0, -1)
							}
						}
					}
					bt := newMiniBatchTrainer(m, pool)
					if oracle {
						for i, l := range bt.layers {
							bt.layers[i] = lstmStepOrderLayer{l.(*lstmTrainLayer)}
						}
					}
					bt.trainBatch(samples, idx)
					return m
				}
				got, want := train(false).Params(), train(true).Params()
				for pi := range want {
					for gi, w := range want[pi].Grad {
						if g := got[pi].Grad[gi]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("steps=%d n=%d %s: param %d grad %d = %v (%#x), per-step order %v (%#x)",
								steps, n, tc.name, pi, gi, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

func snapshotParams(m *Model) [][]float64 {
	var out [][]float64
	for _, p := range m.Params() {
		out = append(out, append([]float64(nil), p.Data...))
	}
	return out
}

// TestTrainBatchDoesNotAllocate: once its scratch is sized, a minibatch
// forward+backward allocates nothing, for every fused trunk at the
// default artifact shape, inline (production floor) or fanned out
// (floor 0).
func TestTrainBatchDoesNotAllocate(t *testing.T) {
	for _, cell := range []string{"lstm", "mlp"} {
		for _, floor := range []int{dispatchFloor, 0} {
			pool := newPoolFloor(2, floor)
			bt, view, idx := defaultShapeTrainer(t, cell, pool)
			params := bt.m.Params()
			step := func() {
				bt.trainBatch(view, idx)
				for _, p := range params {
					p.ZeroGrad()
				}
			}
			step() // size the scratch buffers
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Errorf("%s floor=%d: %v allocs per trainBatch, want 0", cell, floor, allocs)
			}
			pool.Close()
		}
	}
}

// TestEvaluateMatchesPerSample pins the lane-bank Evaluate to the
// per-sample loop it replaced (evaluateOracle), exactly, for every trunk
// class at sample counts around the 16-lane group size.
func TestEvaluateMatchesPerSample(t *testing.T) {
	for name, cfg := range cellConfigs() {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A little training moves the weights off their initial values.
		m.Train(samplesOf(synthSamples(48, cfg.Features, cfg.Window, 3)))
		for _, count := range []int{1, 15, 16, 17, 157} {
			_, view := synthStream(count, cfg.Features, cfg.Window, int64(count))
			if got, want := m.Evaluate(view), m.evaluateOracle(view); got != want {
				t.Errorf("%s count=%d: Evaluate %+v, per-sample %+v", name, count, got, want)
			}
		}
		// Forward is a one-lane bank: the same bits as the reference.
		_, view := synthStream(20, cfg.Features, cfg.Window, 5)
		var win [][]float64
		for i := 0; i < view.Len(); i++ {
			win = view.WindowAppend(win[:0], i)
			if got, want := m.Forward(win), m.forwardOracle(win); got != want {
				t.Fatalf("%s sample %d: Forward %+v, reference %+v", name, i, got, want)
			}
		}
	}
}

// TestEvaluateAllocsFlat: the bank and its buffers are built once per
// call, so scoring ten times the samples costs no more allocations, for
// every trunk class.
func TestEvaluateAllocsFlat(t *testing.T) {
	for _, cell := range []string{"lstm", "mlp"} {
		cfg := DefaultModelConfig(23, 12)
		cfg.CellType = cell
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		view := sparseStream(400, cfg.Features, cfg.Window, 9)
		small := view.Slice(0, 40)
		a40 := testing.AllocsPerRun(5, func() { m.Evaluate(small) })
		a400 := testing.AllocsPerRun(5, func() { m.Evaluate(view) })
		if a40 != a400 {
			t.Errorf("%s: Evaluate allocates %v times at 40 samples and %v at 400", cell, a40, a400)
		}
	}
}
