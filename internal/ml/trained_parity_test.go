package ml

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

const trainedParityPath = "testdata/trained_parity.json"

// expVariants names the two paths of the runtime's math.Exp on amd64 by
// the bits of exp(expProbe): the AVX+FMA variant and the one without
// FMA (no FMA hardware, or GODEBUG=cpu.fma=off) round it differently.
// Training arithmetic runs through math.Exp, so trained artifacts
// depend on the variant.
const expProbe = 0.01

var expVariants = map[uint64]string{
	0x3ff0292a5d2f2227: "fma",
	0x3ff0292a5d2f2226: "nofma",
}

// expVariant names the path math.Exp takes in this process and fails
// the test on a path it does not know.
func expVariant(t testing.TB) string {
	t.Helper()
	bits := math.Float64bits(math.Exp(expProbe))
	v, ok := expVariants[bits]
	if !ok {
		t.Fatalf("math.Exp(%v) = %#x: unknown math.Exp variant", expProbe, bits)
	}
	return v
}

// TestTrainedArtifactParity pins trained artifacts across commits: the
// SHA-256 of json.Marshal(model) for every trunk × batch size {1, 16} at
// the default artifact shape (23 features, window 12, hidden 24), two
// epochs over synthSamples. The composed-run goldens round event times to
// the nanosecond, which absorbs last-bit weight changes; this does not.
// A reordered gradient sum changes these bytes and fails here. The file
// holds one set per math.Exp variant (expVariants); the test checks the
// running one. Regenerate with MIMICNET_UPDATE_GOLDEN=1, which rewrites
// only the running variant's set, only when a change is supposed to
// alter training arithmetic, and say so in the commit.
func TestTrainedArtifactParity(t *testing.T) {
	update := os.Getenv("MIMICNET_UPDATE_GOLDEN") != ""
	variant := expVariant(t)
	golden := map[string]map[string]string{}
	blob, err := os.ReadFile(trainedParityPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	case !update:
		t.Fatalf("missing golden file (run with MIMICNET_UPDATE_GOLDEN=1 to capture): %v", err)
	}
	want, ok := golden[variant]
	if !ok && !update {
		t.Fatalf("%s has no set for math.Exp variant %q (run with MIMICNET_UPDATE_GOLDEN=1 to capture)", trainedParityPath, variant)
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
			if !update && got[key] != want[key] {
				t.Errorf("%s (%s): trained artifact SHA-256 %s, golden %q", key, variant, got[key], want[key])
			}
		}
	}
	if update {
		golden[variant] = got
		if err := os.MkdirAll(filepath.Dir(trainedParityPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainedParityPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%s: %d artifacts)", trainedParityPath, variant, len(got))
	}
}
