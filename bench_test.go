// Package mimicnet's root benchmark suite regenerates every table and
// figure of the paper's evaluation (one Benchmark per table/figure; see
// DESIGN.md's per-experiment index). Each benchmark prints the
// corresponding table to stdout, so
//
//	go test -bench=. -benchmem | tee bench_output.txt
//
// captures the full reproduction. The workload is scaled down relative to
// the paper (see EXPERIMENTS.md); edit the spec runner() passes to run
// closer to the paper's regime. cmd/sweep runs the same experiments with
// configurable scale.
package mimicnet

import (
	"os"
	"sync"
	"testing"

	"mimicnet/internal/experiments"
	"mimicnet/internal/sim"
)

var (
	sharedOnce   sync.Once
	sharedRunner *experiments.Runner
)

// runner returns a shared Runner so the fixed training cost is paid once
// across the whole benchmark suite (as in the paper's methodology).
func runner() *experiments.Runner {
	sharedOnce.Do(func() {
		sharedRunner = experiments.NewRunner(experiments.Default())
	})
	return sharedRunner
}

// emit runs one experiment per benchmark iteration and prints its table.
func emit(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Fprint(os.Stdout)
		}
	}
}

func BenchmarkFig1_FCTAccuracyVsSize(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig1([]int{4, 8, 16, 32})
	})
}

func BenchmarkFig2_SimulatorScalability(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig2([]int{4, 8, 16, 32})
	})
}

func BenchmarkTable1_FeatureExtraction(b *testing.B) {
	r := runner()
	emit(b, r.Table1)
}

func BenchmarkFig5_DropLossFunctions(b *testing.B) {
	r := runner()
	emit(b, r.Fig5)
}

func BenchmarkFig6_LatencyLossFunctions(b *testing.B) {
	r := runner()
	emit(b, r.Fig6)
}

func BenchmarkFig7_BaselineAccuracy(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig7(2, 16)
	})
}

func BenchmarkFig8_ThroughputScalability(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig8([]int{4, 8, 16})
	})
}

func BenchmarkFig9_RTTScalability(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig9([]int{4, 8, 16})
	})
}

func BenchmarkFig10_Speedup(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig10([]int{8, 16, 32}, []int{2, 4})
	})
}

func BenchmarkFig11_SimulationLatency(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig11([]int{8, 16, 32})
	})
}

func BenchmarkFig12_SimulationThroughput(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig12([]int{8, 16, 32})
	})
}

func BenchmarkTable2_TimeBreakdown(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Table2(32)
	})
}

func BenchmarkFig13_DCTCPTuning(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig13(8, []int{5, 10, 20, 40, 60})
	})
}

func BenchmarkFig14_ProtocolComparison(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig14(8)
	})
}

func BenchmarkFig16_WindowSizeTraining(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig16([]int{1, 2, 5, 12})
	})
}

func BenchmarkFig17_WindowSizeInference(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig17([]int{1, 2, 5, 12})
	})
}

func BenchmarkFig18_ProtocolThroughput(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig18(8)
	})
}

func BenchmarkFig19_ProtocolRTT(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig19(8)
	})
}

func BenchmarkFig20_HeavyLoad(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig20(8)
	})
}

func BenchmarkFig21_LatencyVsLength(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		lat, _, err := r.Fig21And22(16, []sim.Time{
			150 * sim.Millisecond, 300 * sim.Millisecond, 600 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lat.Fprint(os.Stdout)
		}
	}
}

func BenchmarkFig22_ThroughputVsLength(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		_, tput, err := r.Fig21And22(16, []sim.Time{
			150 * sim.Millisecond, 300 * sim.Millisecond, 600 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			tput.Fprint(os.Stdout)
		}
	}
}

func BenchmarkFig23_ComputeConsumption(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig23([]int{4, 8, 16})
	})
}

// Ablations beyond the paper (see DESIGN.md "Key design decisions").

func BenchmarkAblationA_CongestionState(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationCongestionState(8)
	})
}

func BenchmarkAblationB_Feeders(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationFeeders(8)
	})
}

func BenchmarkAblationC_Discretization(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationDiscretization([]int{1, 10, 100, 1000})
	})
}

func BenchmarkAblationD_QueueDisciplines(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationQueues(4)
	})
}

func BenchmarkAblationE_FeederDistribution(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationFeederDistribution(8)
	})
}

func BenchmarkAblationF_ModelClass(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationModelClass(8)
	})
}
