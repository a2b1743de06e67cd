package ml

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const trainedParityPath = "testdata/trained_parity.json"

// TestTrainedArtifactParity pins trained artifacts across commits: the
// SHA-256 of json.Marshal(model) for every trunk × batch size {1, 16} at
// the default artifact shape (23 features, window 12, hidden 24), two
// epochs over synthSamples. The composed-run goldens round event times to
// the nanosecond, which absorbs last-bit weight changes; this does not.
// A reordered gradient sum changes these bytes and fails here. Regenerate
// with MIMICNET_UPDATE_GOLDEN=1 only when a change is supposed to alter
// training arithmetic, and say so in the commit.
func TestTrainedArtifactParity(t *testing.T) {
	update := os.Getenv("MIMICNET_UPDATE_GOLDEN") != ""
	golden := map[string]string{}
	if !update {
		blob, err := os.ReadFile(trainedParityPath)
		if err != nil {
			t.Fatalf("missing golden file (run with MIMICNET_UPDATE_GOLDEN=1 to capture): %v", err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}
	samples := samplesOf(synthSamples(48, 23, 12, 29))
	got := map[string]string{}
	for _, cell := range []string{"lstm", "gru", "mlp"} {
		for _, batch := range []int{1, 16} {
			key := fmt.Sprintf("%s/batch=%d", cell, batch)
			cfg := DefaultModelConfig(23, 12)
			cfg.CellType = cell
			cfg.BatchSize = batch
			cfg.Epochs = 2
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.TrainContext(context.Background(), samples, TrainOpts{}); err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			got[key] = hex.EncodeToString(sum[:])
			if !update && got[key] != golden[key] {
				t.Errorf("%s: trained artifact SHA-256 %s, golden %q", key, got[key], golden[key])
			}
		}
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(trainedParityPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainedParityPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d artifacts)", trainedParityPath, len(got))
	}
}
