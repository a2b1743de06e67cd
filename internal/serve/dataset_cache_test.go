package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"mimicnet/internal/core"
)

// TestDatasetCacheReuse drives datasetsForSpec directly: the first call
// must generate and persist the columnar dataset file, the second must
// replay it bit-for-bit, and a corrupted file must be discarded and
// regenerated rather than trusted.
func TestDatasetCacheReuse(t *testing.T) {
	s := newTestScheduler(t, newTestRegistry(t, 4), 1, 1, nil)
	defer s.Close()
	dir := s.dsDir

	spec := tinySpec().Normalized()
	ctx := context.Background()

	ing1, eg1, err := s.datasetsForSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.cDatasetMisses.Value() != 1 || s.cDatasetHits.Value() != 0 {
		t.Fatalf("first call: misses=%d hits=%d", s.cDatasetMisses.Value(), s.cDatasetHits.Value())
	}
	key, err := spec.DatasetKey()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".dset")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("dataset file not persisted: %v", err)
	}

	ing2, eg2, err := s.datasetsForSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.cDatasetHits.Value() != 1 {
		t.Fatalf("second call did not hit the cache (hits=%d)", s.cDatasetHits.Value())
	}
	for _, pair := range []struct{ a, b *core.Dataset }{{ing1, ing2}, {eg1, eg2}} {
		if pair.a.Len() != pair.b.Len() {
			t.Fatal("replayed dataset sample count differs")
		}
		for i := range pair.a.Samples.Feats {
			if pair.a.Samples.Feats[i] != pair.b.Samples.Feats[i] {
				t.Fatalf("replayed dataset feature %d differs", i)
			}
		}
	}

	// Corruption: flip a payload byte; the cache must regenerate.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ing3, _, err := s.datasetsForSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.cDatasetCorrupt.Value() != 1 {
		t.Fatalf("corrupt counter = %d, want 1", s.cDatasetCorrupt.Value())
	}
	if ing3.Len() != ing1.Len() {
		t.Fatal("regenerated dataset differs from original")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corrupt file not rewritten: %v", err)
	}
	if _, _, err := core.ReadDatasetFile(path); err != nil {
		t.Fatalf("rewritten cache entry unreadable: %v", err)
	}
}

func TestJobSpecDatasetKeyCoarserThanModelKey(t *testing.T) {
	a := tinySpec().Normalized()
	b := a
	b.Hidden *= 2
	b.Cell = "gru"
	ka, err := a.DatasetKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.DatasetKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("model-only spec change altered DatasetKey")
	}
	ma, _ := a.ModelKey()
	mb, _ := b.ModelKey()
	if ma == mb {
		t.Error("model-only spec change did not alter ModelKey")
	}
	c := a
	c.Seed++
	if kc, _ := c.DatasetKey(); kc == ka {
		t.Error("workload seed change did not alter DatasetKey")
	}
}
