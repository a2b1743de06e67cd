// Quickstart: the minimal MimicNet workflow.
//
// It (1) runs a full-fidelity 2-cluster simulation to generate training
// data, (2) trains the Mimic internal models, (3) composes an 8-cluster
// data center from 1 real cluster + 7 Mimics, and (4) compares the
// estimated FCT distribution against a full-fidelity 8-cluster ground
// truth using the Wasserstein-1 metric.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/metrics"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

func main() {
	// A scaled-down job: TCP New Reno, DropTail, ECMP, 100 Mbps / 500 µs
	// links, 70% load, heavy-tailed 20 KB-mean flows. The spec is the one
	// `mimicnet` and `mimicnetd` take; its defaults fill in the rest.
	spec := serve.JobSpec{MeanFlowBytes: 20_000, WorkloadMs: 150, SmallRunMs: 250}.Normalized()
	base, _, err := spec.Configs()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Phase 1-2: small-scale data generation + training.
	fmt.Println("training mimic models from a 2-cluster simulation ...")
	t0 := time.Now()
	ing, eg, err := spec.Datasets(ctx)
	if err != nil {
		log.Fatal(err)
	}
	t1 := time.Now()
	models, _, err := spec.Train(ctx, ing, eg, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  data generation %v, training %v (%d+%d samples)\n",
		t1.Sub(t0).Round(time.Millisecond), time.Since(t1).Round(time.Millisecond),
		ing.Len(), eg.Len())

	// Phase 5: estimate an 8-cluster data center.
	const n = 8
	horizon := 300 * sim.Millisecond
	cfg := base
	cfg.Topo = base.Topo.WithClusters(n)
	rep, err := core.Estimate(ctx, cfg, models, horizon, nil)
	if err != nil {
		log.Fatal(err)
	}
	estimate := rep.Results
	fmt.Printf("mimicnet estimate at %d clusters took %v\n", n, rep.Wall.Round(time.Millisecond))

	// Ground truth for comparison (normally you would skip this — it is
	// the expensive thing MimicNet replaces).
	truth, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	truth.Run(horizon)
	fmt.Printf("full-fidelity ground truth took %v\n", time.Since(t0).Round(time.Millisecond))

	tres := truth.Results()
	fmt.Printf("\n%-12s %-10s %-10s %-10s\n", "metric", "w1", "mimic_p99", "truth_p99")
	for _, row := range []struct {
		name         string
		mimic, truth []float64
	}{
		{"fct", estimate.FCTs, tres.FCTs},
		{"throughput", estimate.Throughputs, tres.Throughputs},
		{"rtt", estimate.RTTs, tres.RTTs},
	} {
		fmt.Printf("%-12s %-10.4g %-10.4g %-10.4g\n", row.name,
			metrics.W1(row.mimic, row.truth),
			stats.Quantile(row.mimic, 0.99),
			stats.Quantile(row.truth, 0.99))
	}
}
