package core

import (
	"fmt"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
)

// TestGoldenCombinedPipeline is the whole-stack determinism witness: the
// performance subsystems this repo has grown — minibatch (B=16) BPTT
// training, batched fused inference, and flushes split into lane groups
// across the ml pool's workers — composed in one pipeline must be
// bitwise worker-count invariant, Events included. Each layer is
// individually covered elsewhere; this test exists because their
// interleavings (GEMM pool scheduling under split flushes, telemetry on
// every hot path) only combine here.
func TestGoldenCombinedPipeline(t *testing.T) {
	models := trainedForScheduler(t)
	want := ml.DefaultModelConfig(1, 1).BatchSize
	if got := models.Ingress.Model.Cfg.BatchSize; got != want {
		t.Fatalf("artifact trained with BatchSize=%d, want %d (minibatch path)", got, want)
	}

	const n, until = 4, 200 * sim.Millisecond
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(n)
	var golden cluster.Results
	for i, workers := range []int{1, 2, 4} {
		res := runOnPool(t, cfg, composedRoles(n), models, workers, until)
		if len(res.FCTByID) == 0 {
			t.Fatalf("workers=%d: no flows completed; test exercises nothing", workers)
		}
		if i == 0 {
			golden = res
			continue
		}
		sameResults(t, fmt.Sprintf("workers=%d vs 1", workers), golden, res)
		if got, want := resultsFingerprint(res), resultsFingerprint(golden); got != want {
			t.Errorf("workers=%d: fingerprint %.16s != workers=1 %.16s", workers, got, want)
		}
	}
}
