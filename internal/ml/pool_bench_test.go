package ml

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"mimicnet/internal/stats"
)

// BenchmarkPoolBreakEven is the measurement dispatchFloor is derived
// from (DESIGN.md decisions 15 and 21). For hidden ∈ {12,24,64,128} ×
// lanes ∈ {8,16,32,64,128} it times three kinds of work on a
// GOMAXPROCS-worker pool: one fused LSTM inference step, one
// minibatch-BPTT step, and one flush split — GOMAXPROCS lane groups of
// an inference flush, each an ingress and an egress bank stepping
// `lanes` pending steps apiece on its own goroutine, one Range item per
// group (DESIGN.md decision 29). Each runs three
// ways: with every Range call forced onto the caller (floor = MaxInt),
// with every call forced to fan out (floor = 0), and at the production
// floor, which records the side of the rule the cell lands on. The three
// are interleaved step by step inside one timing loop, so a slow spell of
// the host falls on all of them alike. A cell's work is what one chunk of
// its largest Range call carries when forced out, because that is the
// quantity the floor is compared with: for inference and training the
// 4H×H×lanes recurrent GEMM over Workers() chunks, for a flush split one
// group's pending steps in both directions × StepCost. A kind's
// crossover is the least
// such work from which fan-out wins in every larger cell. One constant
// serves every kind: the committed floor must equal the geometric mean of
// the crossovers rounded up to a power of two.
//
// Run it with -benchtime 300ms or more (make bench-pool) for a usable
// table; one iteration, as in bench-smoke, only proves the wiring. The
// table goes to stderr.
func BenchmarkPoolBreakEven(b *testing.B) {
	const (
		features = 23 // feature width of the default topology
		window   = 4  // BPTT depth of the training step; per-step shapes do not depend on it
	)
	workers := runtime.GOMAXPROCS(0)
	modes := []struct {
		name  string
		floor int
	}{{"inline", math.MaxInt}, {"dispatch", 0}, {"prod", dispatchFloor}}
	type cell struct {
		kind          string
		hidden, lanes int
		chunkWork     int        // multiply-add equivalents per chunk of the largest call, forced out
		ns            [3]float64 // ns/step, indexed like modes
		prodDispatch  bool
	}
	var cells []*cell

	kinds := []string{"infer", "train", "flush"}
	for _, kind := range kinds {
		for _, H := range []int{12, 24, 64, 128} {
			for _, n := range []int{8, 16, 32, 64, 128} {
				cfg := DefaultModelConfig(features, window)
				cfg.Hidden = H
				cfg.BatchSize = n
				model, err := NewModel(cfg)
				if err != nil {
					b.Fatal(err)
				}
				c := &cell{kind: kind, hidden: H, lanes: n, chunkWork: 4 * H * H * n / workers}
				if kind == "flush" {
					c.chunkWork = 2 * n * NewBatchedStatefulModel(model, 0, NewPool(1)).StepCost()
				}
				cells = append(cells, c)
				b.Run(fmt.Sprintf("%s/h=%d/n=%d", kind, H, n), func(b *testing.B) {
					var steps [3]func()
					for i, mode := range modes {
						pool := newPoolFloor(workers, mode.floor)
						defer pool.Close()
						steps[i] = breakEvenStep(kind, model, n, pool)
						steps[i]() // size the scratch buffers
					}
					var spent [3]time.Duration
					var prodDispatches uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for m, step := range steps {
							before := obsPoolDispatches.Value()
							start := time.Now()
							step()
							spent[m] += time.Since(start)
							if modes[m].name == "prod" {
								prodDispatches += obsPoolDispatches.Value() - before
							}
						}
					}
					for m, mode := range modes {
						c.ns[m] = float64(spent[m].Nanoseconds()) / float64(b.N)
						b.ReportMetric(c.ns[m], mode.name+"-ns/step")
					}
					c.prodDispatch = prodDispatches > 0
				})
			}
		}
	}

	fmt.Fprintf(os.Stderr, "# pool break-even: ncpu=%d GOMAXPROCS=%d gemm=%s floor=%d\n",
		runtime.NumCPU(), workers, GemmKernelName(), dispatchFloor)
	fmt.Fprintf(os.Stderr, "# %-5s %6s %5s %13s %12s %12s %8s %s\n",
		"kind", "hidden", "lanes", "chunk-muladds", "inline-ns", "dispatch-ns", "ratio", "production")
	logSum := 0.0
	for _, kind := range kinds {
		var ks []*cell
		for _, c := range cells {
			if c.kind == kind && c.ns[0] > 0 && c.ns[1] > 0 {
				ks = append(ks, c)
			}
		}
		sort.SliceStable(ks, func(i, j int) bool { return ks[i].chunkWork < ks[j].chunkWork })
		crossover := math.Inf(1)
		for i := len(ks) - 1; i >= 0 && ks[i].ns[1] < ks[i].ns[0]; i-- {
			crossover = float64(ks[i].chunkWork)
		}
		for _, c := range ks {
			side := "inline"
			if c.prodDispatch {
				side = "dispatch"
			}
			fmt.Fprintf(os.Stderr, "# %-5s %6d %5d %13d %12.0f %12.0f %8.2f %s\n",
				c.kind, c.hidden, c.lanes, c.chunkWork, c.ns[0], c.ns[1], c.ns[1]/c.ns[0], side)
		}
		fmt.Fprintf(os.Stderr, "# %s crossover: %.0f multiply-adds per chunk\n", kind, crossover)
		logSum += math.Log2(crossover)
	}
	fmt.Fprintf(os.Stderr, "# floor: geometric mean of the crossovers, rounded up to a power of two = %.0f (committed: %d)\n",
		math.Exp2(math.Ceil(logSum/float64(len(kinds)))), dispatchFloor)
}

// flushSplit is the flush cell's Range task: item g steps group g's two
// banks, ingress then egress, over their pending lanes, as one task of a
// split inference flush does. The banks step on a one-worker pool, like
// the scheduler's.
type flushSplit [][2]struct {
	bank  *BatchedStatefulModel
	lanes []int
	xs    [][]float64
	preds []Prediction
}

func (f *flushSplit) RunRange(lo, hi int) {
	for _, g := range (*f)[lo:hi] {
		for d := range g {
			g[d].bank.StepLanes(g[d].lanes, g[d].xs, nil, g[d].preds)
		}
	}
}

// breakEvenStep returns one unit of work over n lanes through pool: a
// fused inference step of every lane, one minibatch forward+backward, or
// a flush split of n pending steps per direction in each of
// pool.Workers() lane groups.
func breakEvenStep(kind string, model *Model, n int, pool *Pool) func() {
	rng := stats.NewStream(int64(n))
	if kind == "train" {
		_, view := synthStream(n, model.Cfg.Features, model.Cfg.Window, 17)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		bt := newMiniBatchTrainer(model, pool)
		params := model.Params()
		return func() {
			bt.trainBatch(view, idx)
			for _, p := range params {
				p.ZeroGrad()
			}
		}
	}
	lanes := make([]int, n)
	xs := make([][]float64, n)
	for i := range lanes {
		lanes[i] = i
		xs[i] = sparseVec(model.Cfg.Features, rng) // mostly zero, like the one-hot first layer
	}
	if kind == "flush" {
		f := make(flushSplit, pool.Workers())
		for g := range f {
			for d := range f[g] {
				f[g][d].bank = NewBatchedStatefulModel(model, n, NewPool(1))
				f[g][d].lanes, f[g][d].xs, f[g][d].preds = lanes, xs, make([]Prediction, n)
			}
		}
		cost := 2 * n * f[0][0].bank.StepCost()
		return func() { pool.Range(len(f), cost, &f) }
	}
	bat := NewBatchedStatefulModel(model, n, pool)
	preds := make([]Prediction, n)
	return func() { bat.StepLanes(lanes, xs, nil, preds) }
}
