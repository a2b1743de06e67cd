package ml

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// trainToCompletion runs a full TrainContext on a fresh model and
// returns its serialized bytes plus every checkpoint cut along the way.
func trainToCompletion(t *testing.T, cfg ModelConfig, samples []Sample) ([]byte, []*TrainCheckpoint) {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cks []*TrainCheckpoint
	_, err = m.TrainContext(context.Background(), samplesOf(samples), TrainOpts{
		SaveCheckpoint: func(ck *TrainCheckpoint) error { cks = append(cks, ck); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob, cks
}

// TestTrainResumeBitwiseIdentical is the determinism contract of
// DESIGN.md decision 12: resuming a fresh model from any epoch-boundary
// checkpoint and training to completion yields bytes identical to the
// uninterrupted run — for every trunk class.
func TestTrainResumeBitwiseIdentical(t *testing.T) {
	for name, cfg := range cellConfigs() {
		t.Run(name, func(t *testing.T) {
			samples := synthSamples(40, cfg.Features, cfg.Window, 91)
			want, cks := trainToCompletion(t, cfg, samples)
			// Resume under every pool setting: the cut was taken at the
			// default one, so this also pins floor- and worker-invariance
			// of the continuation.
			for _, pc := range poolConfigs {
				pc.start(t)
				resumeAll(t, cfg, samples, cks, want)
			}
			resumeAll(t, cfg, samples, withBatchField(t, cks), want)
			if last := cks[len(cks)-1]; !last.Complete() {
				t.Fatalf("final checkpoint (epoch %d/%d) not Complete", last.Epoch, cfg.Epochs)
			}
		})
	}
}

// resumeAll resumes a fresh model from every checkpoint in cks and
// requires the bytes of the uninterrupted run.
func resumeAll(t *testing.T, cfg ModelConfig, samples []Sample, cks []*TrainCheckpoint, want []byte) {
	t.Helper()
	for _, ck := range cks {
		m2, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.TrainContext(context.Background(), samplesOf(samples), TrainOpts{ResumeFrom: ck}); err != nil {
			t.Fatalf("resume from epoch %d: %v", ck.Epoch, err)
		}
		got, err := json.Marshal(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resume from epoch %d diverged from uninterrupted run", ck.Epoch)
		}
	}
}

// withBatchField re-decodes cks from JSON that carries the always-zero
// "batch" cursor checkpoints used to write, as a checkpoint left on disk
// by an older build does.
func withBatchField(t *testing.T, cks []*TrainCheckpoint) []*TrainCheckpoint {
	t.Helper()
	old := make([]*TrainCheckpoint, len(cks))
	for i, ck := range cks {
		blob, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		old[i] = new(TrainCheckpoint)
		if err := json.Unmarshal(append([]byte(`{"batch":0,`), blob[1:]...), old[i]); err != nil {
			t.Fatalf("checkpoint with a batch cursor: %v", err)
		}
	}
	return old
}

// TestTrainResumeAfterCancel models the real crash path: training is
// cancelled mid-run after a checkpoint was cut, then a fresh model
// resumes from the newest checkpoint and must converge to the same
// bytes as a run that was never interrupted.
func TestTrainResumeAfterCancel(t *testing.T) {
	cfg := cellConfigs()["lstm"]
	samples := synthSamples(40, cfg.Features, cfg.Window, 92)
	want, _ := trainToCompletion(t, cfg, samples)

	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var latest *TrainCheckpoint
	_, err = m.TrainContext(ctx, samplesOf(samples), TrainOpts{
		SaveCheckpoint: func(ck *TrainCheckpoint) error { latest = ck; return nil },
		Progress: func(p TrainProgress) {
			if p.Epoch == 2 {
				cancel() // "kill" after two epochs; next batch observes it
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled training returned nil error")
	}
	if latest == nil || latest.Epoch != 2 {
		t.Fatalf("latest checkpoint = %+v, want epoch 2", latest)
	}

	// Round-trip the checkpoint through JSON, as the durable layer does:
	// float64s must survive bit-exactly.
	blob, err := json.Marshal(latest)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TrainCheckpoint
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}

	m2, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.TrainContext(context.Background(), samplesOf(samples), TrainOpts{ResumeFrom: &decoded}); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resume after cancel diverged from uninterrupted run")
	}
}

// TestTrainResumeFromCompleteCheckpoint: a finished direction restores
// instantly (zero epochs run) and reproduces the final bytes.
func TestTrainResumeFromCompleteCheckpoint(t *testing.T) {
	cfg := cellConfigs()["lstm"]
	samples := synthSamples(24, cfg.Features, cfg.Window, 93)
	want, cks := trainToCompletion(t, cfg, samples)
	final := cks[len(cks)-1]

	m2, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochsRun := 0
	res, err := m2.TrainContext(context.Background(), samplesOf(samples), TrainOpts{
		ResumeFrom: final,
		Progress:   func(TrainProgress) { epochsRun++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochsRun != 0 {
		t.Fatalf("complete checkpoint still ran %d epochs", epochsRun)
	}
	if len(res.EpochLoss) != cfg.Epochs {
		t.Fatalf("restored result has %d epoch losses, want %d", len(res.EpochLoss), cfg.Epochs)
	}
	got, err := json.Marshal(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("complete-checkpoint restore diverged")
	}
}

// TestTrainResumeValidation: mismatched configs or sample counts must be
// rejected loudly rather than silently diverging.
func TestTrainResumeValidation(t *testing.T) {
	cfg := cellConfigs()["mlp"]
	samples := synthSamples(16, cfg.Features, cfg.Window, 94)
	_, cks := trainToCompletion(t, cfg, samples)
	ck := cks[0]

	other := cfg
	other.Hidden++
	m, err := NewModel(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainContext(context.Background(), samplesOf(samples), TrainOpts{ResumeFrom: ck}); err == nil {
		t.Fatal("config mismatch accepted")
	}

	m2, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.TrainContext(context.Background(), samplesOf(samples[:8]), TrainOpts{ResumeFrom: ck}); err == nil {
		t.Fatal("sample-count mismatch accepted")
	}
}
