// Protocol comparison (paper §9.4.2, Figure 14).
//
// MimicNet is accurate enough to rank transport protocols at scale: the
// paper compares Homa, DCTCP, TCP Vegas, and TCP Westwood FCTs in a
// 32-cluster data center and shows MimicNet predicting the correct order
// with tails within ~5%. This example runs the same comparison (at a
// reduced size) — a separate Mimic model is trained per protocol, since
// each stresses the cluster differently (priorities, ECN, delay
// sensitivity, bandwidth probing).
//
//	go run ./examples/protocol_comparison
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/metrics"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

const (
	largeN  = 12
	horizon = 300 * sim.Millisecond
)

type result struct {
	proto            string
	truth90, mimic90 float64
	truth99, mimic99 float64
	w1               float64
}

func main() {
	protocols := []string{"homa", "dctcp", "vegas", "westwood"}
	var results []result
	for _, name := range protocols {
		spec := serve.JobSpec{
			Protocol: name, MeanFlowBytes: 20_000, WorkloadMs: 150, SmallRunMs: 200,
			Window: 6, Hidden: 16, Epochs: 2,
		}.Normalized()
		base, _, err := spec.Configs()
		if err != nil {
			log.Fatal(err)
		}

		// Ground truth at scale.
		largeCfg := base
		largeCfg.Topo = base.Topo.WithClusters(largeN)
		truthInst, err := cluster.New(largeCfg)
		if err != nil {
			log.Fatal(err)
		}
		truthInst.Run(horizon)
		truth := truthInst.Results()

		// Full MimicNet pipeline for this protocol.
		ctx := context.Background()
		ing, eg, err := spec.Datasets(ctx)
		if err != nil {
			log.Fatal(err)
		}
		models, _, err := spec.Train(ctx, ing, eg, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.Estimate(ctx, largeCfg, models, horizon, nil)
		if err != nil {
			log.Fatal(err)
		}
		mimic := rep.Results
		results = append(results, result{
			proto:   name,
			truth90: stats.Quantile(truth.FCTs, 0.9),
			mimic90: stats.Quantile(mimic.FCTs, 0.9),
			truth99: stats.Quantile(truth.FCTs, 0.99),
			mimic99: stats.Quantile(mimic.FCTs, 0.99),
			w1:      metrics.W1(mimic.FCTs, truth.FCTs),
		})
		fmt.Printf("%s done\n", name)
	}

	fmt.Printf("\n%-10s %-12s %-12s %-12s %-12s %-10s\n",
		"protocol", "truth_p90", "mimic_p90", "truth_p99", "mimic_p99", "w1_fct")
	for _, r := range results {
		fmt.Printf("%-10s %-12.4g %-12.4g %-12.4g %-12.4g %-10.4g\n",
			r.proto, r.truth90, r.mimic90, r.truth99, r.mimic99, r.w1)
	}

	// Does MimicNet rank the protocols like the ground truth does?
	fmt.Printf("\np90 ranking (best to worst): truth: %v | mimicnet: %v\n",
		ranking(results, func(r result) float64 { return r.truth90 }),
		ranking(results, func(r result) float64 { return r.mimic90 }))
}

func ranking(rs []result, key func(result) float64) []string {
	sorted := append([]result(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	names := make([]string, len(sorted))
	for i, r := range sorted {
		names[i] = r.proto
	}
	return names
}
