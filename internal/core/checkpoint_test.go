package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
)

// TestTrainModelsCkptKillResume is the pipeline-level crash drill: kill
// both direction trainings mid-run (after their first checkpoints), then
// resume with the same checkpointer and verify the final artifact is
// byte-identical to an uninterrupted run.
func TestTrainModelsCkptKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real models")
	}
	tcfg := fastTrain()
	tcfg.Model.Epochs = 3
	ing, eg, _, err := GenerateTrainingData(fastBase(), 100*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}

	base, _, _, err := TrainModelsContext(context.Background(), ing, eg, tcfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := &TrainCheckpointer{Dir: t.TempDir(), Key: "testkey"}

	// "Crash": cancel as soon as any direction reports its first epoch —
	// each direction has cut at least zero and at most all checkpoints.
	ctx, cancel := context.WithCancel(context.Background())
	_, _, _, err = TrainModelsContext(ctx, ing, eg, tcfg,
		func(dir Direction, p ml.TrainProgress) {
			if p.Epoch >= 1 {
				cancel()
			}
		}, ckpt)
	cancel()
	if err == nil {
		t.Fatal("cancelled training returned nil error")
	}

	// Recovery: same checkpointer directory, fresh run to completion.
	got1, _, _, err := TrainModelsContext(context.Background(), ing, eg, tcfg, nil, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	blob1, err := json.Marshal(got1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob1, want) {
		t.Fatal("kill-and-resume artifact differs from uninterrupted run")
	}

	// Final checkpoints are Complete; a re-run restores instantly and
	// still matches. Then Clear removes the cursor files.
	got2, _, _, err := TrainModelsContext(context.Background(), ing, eg, tcfg, nil, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(got2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob2, want) {
		t.Fatal("complete-checkpoint restore differs from uninterrupted run")
	}
	ckpt.Clear()
	for _, d := range []Direction{Ingress, Egress} {
		if _, err := os.Stat(ckpt.Path(d)); !os.IsNotExist(err) {
			t.Fatalf("%v checkpoint survived Clear: %v", d, err)
		}
	}
}

// TestTrainCheckpointerStaleMismatch: a checkpoint cut under different
// hyper-parameters or a different dataset must be ignored, not resumed.
func TestTrainCheckpointerStaleMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real models")
	}
	tcfg := fastTrain()
	ing, _, _, err := GenerateTrainingData(fastBase(), 60*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &TrainCheckpointer{Dir: t.TempDir(), Key: "stale"}
	if _, _, err := trainDirectionContext(context.Background(), ing, tcfg, nil, ckpt); err != nil {
		t.Fatal(err)
	}

	// Same checkpointer, changed hyper-parameters: the stale cursor must
	// be discarded and training restart from scratch — matching a plain
	// run under the new config.
	tcfg2 := tcfg
	tcfg2.Model.Epochs = tcfg.Model.Epochs + 1
	fromCkpt, _, err := trainDirectionContext(context.Background(), ing, tcfg2, nil, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := trainDirectionContext(context.Background(), ing, tcfg2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(fromCkpt)
	b, _ := json.Marshal(plain)
	if !bytes.Equal(a, b) {
		t.Fatal("stale checkpoint leaked into a changed-config run")
	}
}

// TestTrainCheckpointerCorruptFile: a torn checkpoint file degrades to
// training from scratch.
func TestTrainCheckpointerCorruptFile(t *testing.T) {
	ckpt := &TrainCheckpointer{Dir: t.TempDir(), Key: "torn"}
	if err := os.WriteFile(ckpt.Path(Ingress), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := ckpt.Load(Ingress)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil {
		t.Fatal("corrupt checkpoint file produced a cursor")
	}
}
