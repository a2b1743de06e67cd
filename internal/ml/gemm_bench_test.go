package ml

import (
	"fmt"
	"testing"

	"mimicnet/internal/stats"
)

// BenchmarkGemmKernels measures every kernel setting the CPU can run
// (kernelConfigs) on two loads: one fused inference step at B=16
// (ns/step, and GFLOP/s from FLOPsPerStep) and one minibatch training
// epoch at B=16 (samples/sec). All settings produce bitwise-identical
// outputs, so the rows differ only in throughput.
func BenchmarkGemmKernels(b *testing.B) {
	const (
		features = 23 // feature width of the default topology
		window   = 8
		B        = 16
		nSamples = 256
	)
	for _, kn := range kernelConfigs() {
		b.Run("inference/"+kn.String(), func(b *testing.B) {
			setKernels(b, kn)
			cfg := DefaultModelConfig(features, window)
			model, err := NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			bat := NewBatchedStatefulModel(model, B, nil)
			rng := stats.NewStream(5)
			lanes := make([]int, B)
			xs := make([][]float64, B)
			for i := range lanes {
				lanes[i] = i
				xs[i] = randVec(features, rng)
			}
			preds := make([]Prediction, B)
			b.SetBytes(int64(8 * model.FLOPsPerStep() / 2 * B)) // weight floats touched per fused step
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bat.StepLanes(lanes, xs, nil, preds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/step")
			b.ReportMetric(model.FLOPsPerStep()*float64(b.N*B)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})

		b.Run("train/"+kn.String(), func(b *testing.B) {
			setKernels(b, kn)
			rng := stats.NewStream(7)
			samples := NewSampleBank(features, window, nSamples)
			for i := 0; i < nSamples; i++ {
				samples.Feats = append(samples.Feats, randVec(features, rng)...)
				samples.PushTarget(rng.Float64(), rng.Float64() < 0.1, rng.Float64() < 0.2)
			}
			cfg := DefaultModelConfig(features, window)
			cfg.Epochs = 1
			cfg.BatchSize = B
			model, err := NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// forward + ~2x backward over the whole window per sample
			b.SetBytes(int64(3 * model.FLOPsPerStep() * window))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.Train(samples)
			}
			b.ReportMetric(float64(nSamples*b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkStepLanes times one fused inference step of n lanes at the
// default artifact shape (defaultShapeLanes) for every trunk class,
// reporting ns per lane-step: the quantity a composed run pays per
// model step at the round widths its flushes actually have (DESIGN.md
// decision 18 has the table). The lanes step through a ring of
// stepLanesInputs distinct mostly-zero inputs (sparseVec), as
// BenchmarkInputWalk's products do, so that no branch predictor learns
// one fixed zero pattern per lane and the zero-skipping walks are priced
// as real packets price them (decision 39).
func BenchmarkStepLanes(b *testing.B) {
	const stepLanesInputs = 4096
	for _, cell := range []string{"lstm", "gru", "mlp"} {
		for _, n := range []int{1, 2, 4, 8, 13, 16, 31} {
			b.Run(fmt.Sprintf("%s/n=%d", cell, n), func(b *testing.B) {
				model, lanes, _ := defaultShapeLanes(b, cell, n)
				rng := stats.NewStream(int64(1000 + n))
				rounds := make([][][]float64, stepLanesInputs/n)
				for r := range rounds {
					rounds[r] = make([][]float64, n)
					for a := range rounds[r] {
						rounds[r][a] = sparseVec(model.Cfg.Features, rng)
					}
				}
				bat := NewBatchedStatefulModel(model, n, nil)
				preds := make([]Prediction, n)
				bat.StepLanes(lanes, rounds[0], nil, preds) // size the scratch buffers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bat.StepLanes(lanes, rounds[i%len(rounds)], nil, preds)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/lane-step")
			})
		}
	}
}

// BenchmarkGateKernels times one gate pass alone, sigmoidLanes and
// tanhLanes in place under the live kernel flags, at the LSTM's quarter
// widths for hidden 24: 24 (one gate, and the cell's tanh) and 48 (the
// adjacent i and f quarters, one sigmoid pass). It reports ns per
// element, the gate layer under BenchmarkStepLanes. Inputs are uniform
// in [-4, 4), so tanh groups mix its polynomial and exp branches.
func BenchmarkGateKernels(b *testing.B) {
	gates := []struct {
		name string
		f    func(dst, src []float64, wide bool)
	}{{"sigmoid", sigmoidLanes}, {"tanh", tanhLanes}}
	for _, g := range gates {
		for _, n := range []int{24, 48} {
			b.Run(fmt.Sprintf("%s/n=%d", g.name, n), func(b *testing.B) {
				rng := stats.NewStream(int64(n))
				src := make([]float64, n)
				for i := range src {
					src[i] = 8*rng.Float64() - 4
				}
				buf := make([]float64, n)
				wide := useWideGates
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(buf, src)
					g.f(buf, buf, wide)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		}
	}
}

// BenchmarkTrainBatch times one minibatch forward+backward (trainBatch,
// gradients zeroed after each) at the default training shape — 23
// features, hidden 24, batch 16, window 12, mostly-zero inputs
// (defaultShapeTrainer) — for both recurrent trunks, on a one-worker
// pool, reporting ns per sample: the trainer's share of a first
// estimate (DESIGN.md decision 19 has the table).
func BenchmarkTrainBatch(b *testing.B) {
	for _, cell := range []string{"lstm", "gru"} {
		b.Run(cell, func(b *testing.B) {
			pool := NewPool(1)
			defer pool.Close()
			bt, view, idx := defaultShapeTrainer(b, cell, pool)
			params := bt.m.Params()
			step := func() {
				bt.trainBatch(view, idx)
				for _, p := range params {
					p.ZeroGrad()
				}
			}
			step() // size the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/sample")
		})
	}
}

// BenchmarkAdamStep times one optimizer step (adam.Step, gradients
// zeroed) over every parameter of the default-shape LSTM artifact (23
// features, hidden 24) under the live kernel flags, reporting ns per
// parameter. Each iteration first copies in the same drawn gradient, as
// a minibatch writes its own, so the moments stay ordinary numbers
// rather than decaying into subnormals.
func BenchmarkAdamStep(b *testing.B) {
	model, err := NewModel(DefaultModelConfig(23, 12))
	if err != nil {
		b.Fatal(err)
	}
	params := model.Params()
	rng := stats.NewStream(13)
	grads := make([][]float64, len(params))
	count := 0
	for i, p := range params {
		grads[i] = randVec(len(p.Grad), rng)
		count += len(p.Grad)
	}
	opt := newAdam(1e-3)
	step := func() {
		for i, p := range params {
			copy(p.Grad, grads[i])
		}
		opt.Step(params)
	}
	step() // allocate the moments
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/param")
}

// BenchmarkInputWalk times the two zero-skipping walks of one lane's
// input product W·x over 4096 distinct mostly-zero inputs (sparseVec)
// taken in turn, so that no branch predictor learns their zero pattern:
// "list" is mulLane (the non-zero columns listed first, then the row
// kernel over the list), "strided" is accStrided at stride 1 (every column walked,
// each zero passed by with a branch). The shapes are the default
// artifact's input products: the LSTM's Wx (96 × 23), the GRU's
// (72 × 23) and the MLP's window (24 × 276). DESIGN.md decision 38 has
// the table behind keeping both walks.
func BenchmarkInputWalk(b *testing.B) {
	const inputs = 4096
	for _, sh := range []struct{ rows, cols int }{{96, 23}, {72, 23}, {24, 23 * 12}} {
		rng := stats.NewStream(int64(sh.rows*1000 + sh.cols))
		m := newMatrix(sh.rows, sh.cols)
		for i := range m.Data {
			m.Data[i] = 2*rng.Float64() - 1
		}
		p := packRows(m)
		xs := make([]float64, 0, inputs*sh.cols)
		for i := 0; i < inputs; i++ {
			xs = append(xs, sparseVec(sh.cols, rng)...)
		}
		out := make([]float64, sh.rows)
		idx := make([]int, sh.cols)
		for _, walk := range []string{"list", "strided"} {
			b.Run(fmt.Sprintf("rows=%d/cols=%d/%s", sh.rows, sh.cols, walk), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					j := i % inputs
					x := xs[j*sh.cols : (j+1)*sh.cols]
					if walk == "list" {
						p.mulLane(0, x, out, idx)
					} else {
						zeroRange(out)
						p.accStrided(0, x, 1, sh.cols, out)
					}
				}
			})
		}
	}
}

// BenchmarkRowKernel times the row kernel alone under the live kernel
// flags: one accStrided at stride 1 over a dense input (every column,
// onto a running output) of a rows × nnz k-major matrix, reporting ns
// per term, one column walked for all rows. Rows 23 and 24 are the trainer's narrow products (a
// weight-gradient row is In = 23 or H = 24 wide; Whᵀ·dz has 24 rows);
// 48, 72 and 96 are the GRU and LSTM gate products. nnz 16 is one
// step's lanes of a minibatch, 192 the whole minibatch's 12 × 16.
func BenchmarkRowKernel(b *testing.B) {
	for _, rows := range []int{12, 23, 24, 48, 72, 96} {
		for _, nnz := range []int{16, 192} {
			b.Run(fmt.Sprintf("rows=%d/nnz=%d", rows, nnz), func(b *testing.B) {
				rng := stats.NewStream(int64(rows*1000 + nnz))
				m := newMatrix(rows, nnz)
				for i := range m.Data {
					m.Data[i] = 2*rng.Float64() - 1
				}
				x := randVec(nnz, rng)
				out := make([]float64, rows)
				p := packRows(m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.accStrided(0, x, 1, nnz, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nnz), "ns/term")
			})
		}
	}
}
