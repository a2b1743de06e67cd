// DCTCP configuration tuning (paper §9.4.1, Figure 13).
//
// DCTCP's ECN marking threshold K trades latency against throughput, and
// the best setting depends on scale: the paper shows a 2-cluster
// simulation prescribing K=60 while the 32-cluster truth (and MimicNet)
// prescribe K=20. This example sweeps K at small scale and at a larger
// composition, and reports which K each method prescribes for the 90-pct
// FCT.
//
//	go run ./examples/dctcp_tuning
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

const (
	largeN  = 12
	horizon = 300 * sim.Millisecond
)

func main() {
	ks := []int{5, 10, 20, 40, 60}
	fmt.Printf("%-4s %-14s %-14s %-14s\n", "K", "small_2c_p90", "truth_p90", "mimicnet_p90")

	bestSmall, bestTruth, bestMimic := "", "", ""
	minSmall, minTruth, minMimic := 1e18, 1e18, 1e18
	var fullWall, mimicWall time.Duration

	for _, k := range ks {
		spec := serve.JobSpec{
			Protocol: "dctcp", ECNK: k, MeanFlowBytes: 20_000, WorkloadMs: 150, SmallRunMs: 200,
			Window: 6, Hidden: 16, Epochs: 2,
		}.Normalized()
		base, _, err := spec.Configs()
		if err != nil {
			log.Fatal(err)
		}

		// Small-scale prescription.
		small := mustRun(base)

		// Large-scale ground truth (the expensive path).
		largeCfg := base
		largeCfg.Topo = base.Topo.WithClusters(largeN)
		t0 := time.Now()
		truth := mustRun(largeCfg)
		fullWall += time.Since(t0)

		// MimicNet prescription: per-K training + composition.
		t0 = time.Now()
		ctx := context.Background()
		ing, eg, err := spec.Datasets(ctx)
		if err != nil {
			log.Fatal(err)
		}
		models, _, err := spec.Train(ctx, ing, eg, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		mimic, err := core.Estimate(ctx, largeCfg, models, horizon, nil)
		if err != nil {
			log.Fatal(err)
		}
		mimicWall += time.Since(t0)

		s90 := stats.Quantile(small.FCTs, 0.9)
		t90 := stats.Quantile(truth.FCTs, 0.9)
		m90 := stats.Quantile(mimic.Results.FCTs, 0.9)
		fmt.Printf("%-4d %-14.4g %-14.4g %-14.4g\n", k, s90, t90, m90)
		if s90 < minSmall {
			minSmall, bestSmall = s90, fmt.Sprint(k)
		}
		if t90 < minTruth {
			minTruth, bestTruth = t90, fmt.Sprint(k)
		}
		if m90 < minMimic {
			minMimic, bestMimic = m90, fmt.Sprint(k)
		}
	}
	fmt.Printf("\nprescribed K: small-scale=%s, %d-cluster truth=%s, mimicnet=%s\n",
		bestSmall, largeN, bestTruth, bestMimic)
	fmt.Printf("wall clock for the large sweep: full %v vs mimicnet %v (incl. per-K training)\n",
		fullWall.Round(time.Millisecond), mimicWall.Round(time.Millisecond))
	fmt.Printf("(paper, at 32 clusters: small scale prescribes K=60, truth and MimicNet K=20,\n" +
		" with MimicNet 12x faster; raise largeN here and the same gap opens as the\n" +
		" fixed training cost amortizes against the growing full-simulation cost)\n")
}

func mustRun(cfg cluster.Config) cluster.Results {
	inst, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	inst.Run(horizon)
	return inst.Results()
}
