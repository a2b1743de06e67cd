package ml

import (
	"fmt"
	"testing"

	"mimicnet/internal/stats"
)

// BenchmarkGemmKernels measures every available kernel family on two
// loads: one fused inference step at B=16 (ns/step, and GFLOP/s from
// FLOPsPerStep) and one minibatch training epoch at B=16 (samples/sec).
// All families produce bitwise-identical outputs, so the rows differ
// only in throughput.
func BenchmarkGemmKernels(b *testing.B) {
	const (
		features = 23 // feature width of the default topology
		window   = 8
		B        = 16
		nSamples = 256
	)
	for _, kn := range gemmKernels() {
		b.Run("inference/"+kn, func(b *testing.B) {
			if err := setGemmKernel(kn); err != nil {
				b.Fatal(err)
			}
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

		b.Run("train/"+kn, func(b *testing.B) {
			if err := setGemmKernel(kn); err != nil {
				b.Fatal(err)
			}
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
// decision 18 has the table).
func BenchmarkStepLanes(b *testing.B) {
	for _, cell := range []string{"lstm", "gru", "mlp"} {
		for _, n := range []int{1, 2, 4, 8, 13, 16, 31} {
			b.Run(fmt.Sprintf("%s/n=%d", cell, n), func(b *testing.B) {
				model, lanes, xs := defaultShapeLanes(b, cell, n)
				bat := NewBatchedStatefulModel(model, n, nil)
				preds := make([]Prediction, n)
				bat.StepLanes(lanes, xs, nil, preds) // size the scratch buffers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bat.StepLanes(lanes, xs, nil, preds)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/lane-step")
			})
		}
	}
}

// BenchmarkGateKernels times one gate pass alone, sigmoidLanes and
// tanhLanes in place under the live kernel family, at the LSTM's quarter
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
				wide := gemmKernel().wideGates
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
