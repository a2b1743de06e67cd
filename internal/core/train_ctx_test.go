package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
)

func TestBankSubsampleCopies(t *testing.T) {
	bank := []PacketInfo{{SizeBytes: 1}, {SizeBytes: 2}, {SizeBytes: 3}}

	// Short banks must be copied, not aliased: DirectionModel's bank
	// outlives the dataset and may be mutated independently.
	out := bankSubsample(bank, 10)
	if len(out) != len(bank) {
		t.Fatalf("len = %d, want %d", len(out), len(bank))
	}
	out[0].SizeBytes = 99
	if bank[0].SizeBytes != 1 {
		t.Fatal("bankSubsample aliased the caller's slice")
	}

	// Long banks stride-subsample down to max.
	long := make([]PacketInfo, 100)
	for i := range long {
		long[i].SizeBytes = i
	}
	sub := bankSubsample(long, 10)
	if len(sub) != 10 {
		t.Fatalf("subsampled len = %d, want 10", len(sub))
	}
	if sub[0].SizeBytes != 0 || sub[9].SizeBytes != 90 {
		t.Fatalf("stride subsample endpoints = %d, %d", sub[0].SizeBytes, sub[9].SizeBytes)
	}
}

func TestGapSubsampleCopies(t *testing.T) {
	gaps := []float64{1, 2, 3}
	out := gapSubsample(gaps, 10)
	out[0] = 99
	if gaps[0] != 1 {
		t.Fatal("gapSubsample aliased the caller's slice")
	}
}

// TestTrainModelsContextMatchesSerial proves the concurrent direction
// training is a pure wall-clock optimization: models and evaluations are
// identical to training the directions one after the other, and the
// progress stream covers every epoch of both directions.
func TestTrainModelsContextMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real models")
	}
	tcfg := fastTrain()
	ing, eg, _, err := GenerateTrainingData(fastBase(), 100*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatalf("GenerateTrainingData: %v", err)
	}

	serialIng, serialIngEval, err := TrainDirection(ing, tcfg)
	if err != nil {
		t.Fatalf("serial ingress: %v", err)
	}
	serialEg, serialEgEval, err := TrainDirection(eg, tcfg)
	if err != nil {
		t.Fatalf("serial egress: %v", err)
	}

	var mu sync.Mutex
	seen := map[Direction]int{}
	models, ingEval, egEval, err := TrainModelsContext(context.Background(), ing, eg, tcfg,
		func(dir Direction, p ml.TrainProgress) {
			mu.Lock()
			defer mu.Unlock()
			seen[dir]++
			if p.Epoch != seen[dir] || p.Epochs != tcfg.Model.Epochs || p.SamplesPerSec <= 0 {
				t.Errorf("%v progress out of order or empty: %+v (have %d)", dir, p, seen[dir])
			}
		}, nil)
	if err != nil {
		t.Fatalf("TrainModelsContext: %v", err)
	}
	if seen[Ingress] != tcfg.Model.Epochs || seen[Egress] != tcfg.Model.Epochs {
		t.Fatalf("progress epochs = %v, want %d per direction", seen, tcfg.Model.Epochs)
	}
	if ingEval != serialIngEval || egEval != serialEgEval {
		t.Fatalf("concurrent evals diverged from serial: %+v vs %+v / %+v vs %+v",
			ingEval, serialIngEval, egEval, serialEgEval)
	}
	for _, pair := range [][2]*DirectionModel{{models.Ingress, serialIng}, {models.Egress, serialEg}} {
		got, want := pair[0].Model.Params(), pair[1].Model.Params()
		for pi := range got {
			for di := range got[pi].Data {
				if got[pi].Data[di] != want[pi].Data[di] {
					t.Fatal("concurrent training changed model weights vs serial")
				}
			}
		}
	}
}

// TestTrainModelsContextCancellation: a cancelled context stops both
// direction trainings promptly with ctx's error.
func TestTrainModelsContextCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real models")
	}
	tcfg := fastTrain()
	tcfg.Model.Epochs = 50 // long enough that cancellation must cut it short
	ing, eg, _, err := GenerateTrainingData(fastBase(), 100*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatalf("GenerateTrainingData: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, _, err = TrainModelsContext(ctx, ing, eg, tcfg, nil, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestGenerateTrainingDataContextCancelled: a cancelled small-scale run
// must not hand back datasets built from a partial trace.
func TestGenerateTrainingDataContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := GenerateTrainingDataContext(ctx, fastBase(), 100*sim.Millisecond, fastTrain())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNonFiniteModelsRefused: batched inference equals the per-packet
// path only over finite weights (ml.TestNonFiniteWeightBreaksZeroSkip has
// the W[0][5] = +Inf, x[5] = 0 case), so an artifact with a NaN or Inf
// weight is refused where it would enter inference — on load and at the
// end of training — instead of silently predicting differently.
func TestNonFiniteModelsRefused(t *testing.T) {
	fresh := func() *ml.Model {
		m, err := ml.NewModel(ml.DefaultModelConfig(20, 4))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	models := &MimicModels{Ingress: &DirectionModel{Model: fresh()}, Egress: &DirectionModel{Model: fresh()}}
	blob, err := models.Save()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(blob); err != nil {
		t.Fatalf("finite artifact refused: %v", err)
	}
	models.Egress.Model.Params()[0].Data[5] = math.Inf(1)
	if err := models.validate(); err == nil || !strings.Contains(err.Error(), "egress") {
		t.Fatalf("validate with an Inf egress weight = %v, want an egress error", err)
	}
	// JSON has no literal for Inf; an out-of-range number fails to decode.
	overflow := bytes.Replace(blob, []byte(`"data":[`), []byte(`"data":[1e999,`), 1)
	if _, err := LoadModels(overflow); err == nil {
		t.Fatal("LoadModels accepted an out-of-range weight")
	}

	// A learning rate this large overflows the weights within two Adam steps.
	tcfg := fastTrain()
	ing, eg, _, err := GenerateTrainingData(fastBase(), 60*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg.Model.LR = 1e308
	if _, _, err := trainDirectionContext(context.Background(), ing, tcfg, nil, nil); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("trainDirectionContext with a diverging LR = %v, want a diverged error", err)
	}
	// The public path refuses it too: a weight that overflowed stays
	// non-finite through every later step (ml.TestNonFiniteWeightStaysNonFinite),
	// so TrainModels never returns it.
	if models, _, _, err := TrainModels(ing, eg, tcfg); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("TrainModels with a diverging LR = %v (models %v), want a diverged error", err, models != nil)
	}
}
