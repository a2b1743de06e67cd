// Command fullsim runs a full-fidelity packet-level simulation of a
// FatTree data center and reports the end-to-end metrics MimicNet
// estimates: FCT, per-server throughput, and RTT distributions.
//
// Example:
//
//	fullsim -clusters 8 -protocol dctcp -run 500ms -load 0.7
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/serve"
	"mimicnet/internal/stats"
)

func main() {
	var (
		clusters   = flag.Int("clusters", 2, "number of clusters")
		racks      = flag.Int("racks", 2, "racks per cluster")
		hosts      = flag.Int("hosts", 4, "hosts per rack")
		aggs       = flag.Int("aggs", 2, "aggregation switches per cluster")
		cores      = flag.Int("cores-per-agg", 2, "core switches per agg index")
		protocol   = flag.String("protocol", "newreno", "transport: newreno|dctcp|vegas|westwood|homa")
		load       = flag.Float64("load", 0.7, "offered load as a fraction of bisection bandwidth")
		meanFlow   = flag.Float64("mean-flow", 150_000, "mean flow size in bytes")
		duration   = flag.Duration("duration", 150*time.Millisecond, "workload generation horizon (simulated)")
		run        = flag.Duration("run", 300*time.Millisecond, "simulated time to run")
		seed       = flag.Int64("seed", 1, "workload seed")
		ecnK       = flag.Int("ecn-k", 20, "ECN marking threshold (DCTCP)")
		queueCap   = flag.Int("queue", 100, "switch queue capacity in packets")
		observable = flag.Int("observable", 0, "cluster to instrument")
	)
	flag.Parse()

	spec := serve.JobSpec{
		Clusters:      *clusters,
		Racks:         *racks,
		Hosts:         *hosts,
		Aggs:          *aggs,
		CoresPerAgg:   *cores,
		Protocol:      *protocol,
		Load:          *load,
		MeanFlowBytes: *meanFlow,
		ECNK:          *ecnK,
		Seed:          *seed,
		WorkloadMs:    float64(*duration) / float64(time.Millisecond),
		RunMs:         float64(*run) / float64(time.Millisecond),
	}.Normalized()
	fatal(spec.Validate())
	cfg, _, err := spec.Configs()
	fatal(err)
	cfg.Topo = cfg.Topo.WithClusters(spec.Clusters)
	cfg.QueueCapacity = *queueCap
	cfg.Observable = *observable

	inst, err := cluster.New(cfg)
	fatal(err)
	fmt.Printf("fullsim: %d clusters, %d hosts, %d flows scheduled, protocol %s\n",
		spec.Clusters, inst.Topo.Hosts(), len(inst.Flows()), cfg.Protocol.Name())
	t0 := time.Now()
	inst.Run(spec.RunTime())
	wall := time.Since(t0)
	res := inst.Results()

	fmt.Printf("wall clock          %v (%.2f sim-sec/sec)\n", wall.Round(time.Millisecond),
		spec.RunTime().Seconds()/wall.Seconds())
	fmt.Printf("events processed    %d\n", res.Events)
	fmt.Printf("packets injected    %d (%d dropped)\n", res.Packets, res.Drops)
	fmt.Printf("observable flows    %d started, %d completed\n", inst.FlowsStarted(), inst.FlowsCompleted())
	printDist("fct_seconds", res.FCTs)
	printDist("throughput_Bps", res.Throughputs)
	printDist("rtt_seconds", res.RTTs)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fullsim:", err)
		os.Exit(1)
	}
}

func printDist(name string, d []float64) {
	if len(d) == 0 {
		fmt.Printf("%-18s (no samples)\n", name)
		return
	}
	fmt.Printf("%-18s n=%d p50=%.4g p90=%.4g p99=%.4g mean=%.4g\n",
		name, len(d),
		stats.Quantile(d, 0.5), stats.Quantile(d, 0.9),
		stats.Quantile(d, 0.99), stats.Mean(d))
}
