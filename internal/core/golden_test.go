package core

import (
	"fmt"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
)

// TestGoldenCombinedPipeline is the whole-stack determinism witness: the
// three performance subsystems this repo has grown — minibatch (B=16)
// BPTT training, per-cluster sharded composition, and batched fused
// inference — composed in one pipeline must be bitwise worker-count
// invariant. Each layer is individually covered elsewhere; this test
// exists because their interleavings (GEMM pool scheduling under shard
// barriers, per-LP inference flush chains, telemetry on every hot path)
// only combine here.
func TestGoldenCombinedPipeline(t *testing.T) {
	models := trainedForScheduler(t)
	if got := models.Ingress.Model.Cfg.BatchSize; got != ml.DefaultBatchSize {
		t.Fatalf("artifact trained with BatchSize=%d, want %d (minibatch path)",
			got, ml.DefaultBatchSize)
	}

	const n, until = 4, 200 * sim.Millisecond
	var golden cluster.Results
	for i, workers := range []int{1, 2, 4} {
		cfg := fastBase()
		cfg.Topo = cfg.Topo.WithClusters(n)
		cfg.ShardedRun = 1 // force sharding even on small hosts
		cfg.NumWorkers = workers
		comp, err := Compose(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		if !comp.Sharded() {
			t.Fatalf("workers=%d: composition did not shard", workers)
		}
		comp.Run(until)
		res := comp.Results()
		if len(res.FCTByID) == 0 {
			t.Fatalf("workers=%d: no flows completed; test exercises nothing", workers)
		}
		if i == 0 {
			golden = res
			continue
		}
		sameResults(t, fmt.Sprintf("workers=%d vs 1", workers), golden, res)
	}
}
