package ml

import (
	"testing"

	"mimicnet/internal/stats"
)

// naiveWalkLanes is the triple-loop reference for WalkLanes, written with
// the same k-order accumulation and no zero-skip, so agreement must be
// exact.
func naiveWalkLanes(m *Matrix, r0, r1 int, xs []float64, n int, outStride int) []float64 {
	out := make([]float64, n*outStride)
	for a := 0; a < n; a++ {
		for r := r0; r < r1; r++ {
			var sum float64
			for k := 0; k < m.Cols; k++ {
				sum += m.Data[r*m.Cols+k] * xs[a*m.Cols+k]
			}
			out[a*outStride+r] = sum
		}
	}
	return out
}

func randMatrix(rows, cols int, s *stats.Stream) *Matrix {
	m := newMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*s.Float64() - 1
	}
	return m
}

func randVec(n int, s *stats.Stream) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*s.Float64() - 1
	}
	return v
}

// sparseVec is randVec with most entries exactly zero, like the one-hot
// feature blocks.
func sparseVec(n int, s *stats.Stream) []float64 {
	v := make([]float64, n)
	for i := range v {
		if s.Float64() < 0.3 {
			v[i] = 2*s.Float64() - 1
		}
	}
	return v
}

// parityModel builds a small trained-ish model (random init is enough:
// parity is about arithmetic, not accuracy).
func parityModel(t *testing.T, cellType string, layers int) *Model {
	t.Helper()
	cfg := DefaultModelConfig(9, 4)
	cfg.Hidden = 13 // deliberately not a multiple of any block size
	cfg.Layers = layers
	cfg.CellType = cellType
	cfg.Seed = 42
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchedParity drives B per-packet reference StatefulModels and one
// B-lane BatchedStatefulModel through the same interleaved streams and
// requires exact float equality of every Prediction, for every trunk
// class at B ∈ {1, 7, 64}. Feeder-style Advance steps (discarded
// outputs) are interleaved to cover the want-mask path.
func TestBatchedParity(t *testing.T) {
	cases := []struct {
		name   string
		cell   string
		layers int
	}{
		{"lstm", "lstm", 1},
		{"lstm-stacked", "lstm", 2},
		{"gru", "gru", 1},
		{"mlp", "mlp", 1},
	}
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := parityModel(t, tc.cell, tc.layers)
			for _, B := range []int{1, 7, 64} {
				seq := make([]*StatefulModel, B)
				for i := range seq {
					seq[i] = NewStatefulModel(model)
				}
				bat := NewBatchedStatefulModel(model, B, pool)
				rng := stats.NewStream(int64(B))
				for step := 0; step < 50; step++ {
					var lanes []int
					var xs [][]float64
					var want []bool
					for lane := 0; lane < B; lane++ {
						if rng.Float64() < 0.4 { // lane idle this round
							continue
						}
						lanes = append(lanes, lane)
						xs = append(xs, randVec(model.Cfg.Features, rng))
						want = append(want, rng.Float64() < 0.8)
					}
					preds := make([]Prediction, len(lanes))
					bat.StepLanes(lanes, xs, want, preds)
					for i, lane := range lanes {
						if want[i] {
							ref := seq[lane].Predict(xs[i])
							if preds[i] != ref {
								t.Fatalf("B=%d step=%d lane=%d: batched %+v != per-packet %+v",
									B, step, lane, preds[i], ref)
							}
						} else {
							seq[lane].Advance(xs[i])
						}
					}
				}
				var seqSteps uint64
				for _, s := range seq {
					seqSteps += s.Steps
				}
				var batSteps uint64
				for _, s := range bat.LaneSteps {
					batSteps += s
				}
				if batSteps != seqSteps {
					t.Fatalf("B=%d: batched steps %d != per-packet %d", B, batSteps, seqSteps)
				}
			}
		})
	}
}

// TestBatchedResetLane checks a reset lane re-converges with a fresh
// per-packet stream while other lanes are unaffected.
func TestBatchedResetLane(t *testing.T) {
	model := parityModel(t, "lstm", 1)
	bat := NewBatchedStatefulModel(model, 3, nil)
	rng := stats.NewStream(5)
	xs := [][]float64{randVec(model.Cfg.Features, rng), randVec(model.Cfg.Features, rng)}
	for _, x := range xs {
		bat.StepLanes([]int{0, 1, 2}, [][]float64{x, x, x}, nil, make([]Prediction, 3))
	}
	bat.ResetLane(1)
	fresh := NewStatefulModel(model)
	warm := NewStatefulModel(model)
	for _, x := range xs {
		warm.Predict(x)
	}
	x := randVec(model.Cfg.Features, rng)
	preds := make([]Prediction, 3)
	bat.StepLanes([]int{0, 1, 2}, [][]float64{x, x, x}, nil, preds)
	if preds[1] != fresh.Predict(x) {
		t.Error("reset lane does not match a fresh stream")
	}
	if ref := warm.Predict(x); preds[0] != ref || preds[2] != ref {
		t.Error("reset disturbed other lanes")
	}
}

// TestBatchedAddLane grows the bank mid-stream and checks the new lane
// behaves like a fresh stream.
func TestBatchedAddLane(t *testing.T) {
	model := parityModel(t, "gru", 1)
	bat := NewBatchedStatefulModel(model, 1, nil)
	rng := stats.NewStream(9)
	x0 := randVec(model.Cfg.Features, rng)
	bat.StepLanes([]int{0}, [][]float64{x0}, nil, make([]Prediction, 1))
	lane := bat.AddLane()
	if lane != 1 || bat.lanes != 2 {
		t.Fatalf("AddLane = %d, Lanes = %d", lane, bat.lanes)
	}
	x1 := randVec(model.Cfg.Features, rng)
	preds := make([]Prediction, 2)
	bat.StepLanes([]int{0, 1}, [][]float64{x1, x1}, nil, preds)
	fresh := NewStatefulModel(model)
	if preds[1] != fresh.Predict(x1) {
		t.Error("grown lane does not match a fresh stream")
	}
}

// TestPoolCloseAfterDispatch closes pools immediately after dispatching
// work — under -race this is a regression test for the shutdown
// handshake (Close must not write state that draining workers still
// read). Close must also be idempotent. Floor 0 forces the fan-out; at
// the production floor the same call runs on the caller.
func TestPoolCloseAfterDispatch(t *testing.T) {
	for _, floor := range []int{0, dispatchFloor} {
		for i := 0; i < 20; i++ {
			p := newPoolFloor(4, floor)
			var out [64]int64
			p.Range(64, 1, RangeFunc(func(lo, hi int) {
				for j := lo; j < hi; j++ {
					out[j] = int64(j)
				}
			}))
			p.Close()
			p.Close()
			for j := range out {
				if out[j] != int64(j) {
					t.Fatalf("floor %d: item %d did not run before Close returned", floor, j)
				}
			}
		}
	}
}

// TestPoolWorkerCountInvariance: the same GEMMs through pools of
// different sizes and floors must produce bitwise-identical output
// (under -race this also exercises the worker pool for data races). The
// small shapes dispatch only at floor 0; the large ones (hidden 128 × 64
// lanes) must fan out at the production floor as well. The sparse shapes
// give all three products exact zeros to skip.
func TestPoolWorkerCountInvariance(t *testing.T) {
	s := stats.NewStream(3)
	for _, shape := range []struct {
		rows, cols, n  int
		prodDispatches bool
		sparse         bool
	}{{128, 40, 64, false, false}, {512, 128, 64, true, false}, {96, 23, 16, false, true}, {512, 128, 64, true, true}} {
		rows, cols, n := shape.rows, shape.cols, shape.n
		m := randMatrix(rows, cols, s)
		xs, dys := randVec(n*cols, s), randVec(n*rows, s)
		if shape.sparse {
			xs, dys = sparseVec(n*cols, s), sparseVec(n*rows, s)
		}
		ref := make([]float64, n*rows)
		refT := make([]float64, n*cols)
		m.WalkLanes(0, rows, xs, n, ref, rows, !shape.sparse, NewPool(1))
		m.MulLanesT(0, rows, dys, rows, n, refT, NewPool(1))
		m.AddGradLanes(0, rows, dys, rows, n, xs, NewPool(1))
		refG := append([]float64(nil), m.Grad...)
		for _, floor := range []int{0, dispatchFloor} {
			for _, workers := range []int{1, 2, 3, 4, 8} {
				p := newPoolFloor(workers, floor)
				out := make([]float64, n*rows)
				outT := make([]float64, n*cols)
				before := obsPoolDispatches.Value()
				for iter := 0; iter < 5; iter++ {
					m.WalkLanes(0, rows, xs, n, out, rows, !shape.sparse, p)
					m.MulLanesT(0, rows, dys, rows, n, outT, p)
					m.ZeroGrad()
					m.AddGradLanes(0, rows, dys, rows, n, xs, p)
					for i := range ref {
						if out[i] != ref[i] {
							t.Fatalf("%dx%d floor=%d workers=%d iter=%d: WalkLanes differs at %d", rows, cols, floor, workers, iter, i)
						}
					}
					for i := range refT {
						if outT[i] != refT[i] {
							t.Fatalf("%dx%d floor=%d workers=%d iter=%d: MulLanesT differs at %d", rows, cols, floor, workers, iter, i)
						}
					}
					for i := range refG {
						if m.Grad[i] != refG[i] {
							t.Fatalf("%dx%d floor=%d workers=%d iter=%d: AddGradLanes differs at %d", rows, cols, floor, workers, iter, i)
						}
					}
				}
				p.Close()
				// The test would pass vacuously if nothing fanned out.
				dispatched := obsPoolDispatches.Value() > before
				want := workers > 1 && (floor == 0 || shape.prodDispatches)
				if dispatched != want {
					t.Errorf("%dx%d floor=%d workers=%d: dispatched=%v, want %v", rows, cols, floor, workers, dispatched, want)
				}
			}
		}
	}
	// The row kernel's lane split: fused steps of 31 lanes for every trunk
	// at the default artifact shape, which fan out only at floor 0.
	for _, cell := range []string{"lstm", "gru", "mlp"} {
		const n = 31
		model, lanes, xs := defaultShapeLanes(t, cell, n)
		rounds := [][][]float64{xs, xs[1:], xs[:n-1], xs}
		run := func(p *Pool) []Prediction {
			bat := NewBatchedStatefulModel(model, n, p)
			var preds []Prediction
			for _, xs := range rounds {
				out := make([]Prediction, len(xs))
				bat.StepLanes(lanes[:len(xs)], xs, nil, out)
				preds = append(preds, out...)
			}
			return preds
		}
		ref := run(NewPool(1))
		for _, floor := range []int{0, dispatchFloor} {
			for _, workers := range []int{1, 2, 4} {
				p := newPoolFloor(workers, floor)
				before := obsPoolDispatches.Value()
				got := run(p)
				p.Close()
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s floor=%d workers=%d: prediction %d differs", cell, floor, workers, i)
					}
				}
				dispatched := obsPoolDispatches.Value() > before
				if want := workers > 1 && floor == 0; dispatched != want {
					t.Errorf("%s floor=%d workers=%d: dispatched=%v, want %v", cell, floor, workers, dispatched, want)
				}
			}
		}
	}
	// The trainer and Evaluate at the default artifact shape: one
	// minibatch's gradients and the held-out scores of 40 samples, which
	// fan out only at floor 0.
	for _, cell := range []string{"lstm", "gru", "mlp"} {
		run := func(pc poolConfig) ([][]float64, EvalResult) {
			bt, view, idx := defaultShapeTrainer(t, cell, pc.start(t))
			bt.trainBatch(view, idx)
			var grads [][]float64
			for _, p := range bt.m.Params() {
				grads = append(grads, p.Grad)
			}
			return grads, bt.m.Evaluate(view.Slice(0, 40))
		}
		refGrads, refEval := run(poolConfig{1, dispatchFloor})
		for _, floor := range []int{0, dispatchFloor} {
			for _, workers := range []int{1, 2, 4} {
				before := obsPoolDispatches.Value()
				grads, eval := run(poolConfig{workers, floor})
				for pi := range refGrads {
					for i := range refGrads[pi] {
						if grads[pi][i] != refGrads[pi][i] {
							t.Fatalf("%s floor=%d workers=%d: param %d grad %d differs", cell, floor, workers, pi, i)
						}
					}
				}
				if eval != refEval {
					t.Fatalf("%s floor=%d workers=%d: Evaluate %+v, want %+v", cell, floor, workers, eval, refEval)
				}
				dispatched := obsPoolDispatches.Value() > before
				if want := workers > 1 && floor == 0; dispatched != want {
					t.Errorf("%s trainer floor=%d workers=%d: dispatched=%v, want %v", cell, floor, workers, dispatched, want)
				}
			}
		}
	}
}
