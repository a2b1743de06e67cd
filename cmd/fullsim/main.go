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
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/transport"
	"mimicnet/internal/workload"
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

	p, err := transport.ByName(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := cluster.DefaultConfig(*clusters)
	cfg.Topo.RacksPerCluster = *racks
	cfg.Topo.HostsPerRack = *hosts
	cfg.Topo.AggPerCluster = *aggs
	cfg.Topo.CoresPerAgg = *cores
	cfg.Protocol = p
	cfg.Workload = workload.DefaultConfig(*meanFlow)
	cfg.Workload.Load = *load
	cfg.Workload.Duration = sim.Time(*duration)
	cfg.Workload.Seed = *seed
	cfg.ECNThresholdK = *ecnK
	cfg.QueueCapacity = *queueCap
	cfg.Observable = *observable

	inst, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("fullsim: %d clusters, %d hosts, %d flows scheduled, protocol %s\n",
		*clusters, inst.Topo.Hosts(), len(inst.Flows()), p.Name())
	t0 := time.Now()
	inst.Run(sim.Time(*run))
	wall := time.Since(t0)
	res := inst.Results()

	fmt.Printf("wall clock          %v (%.2f sim-sec/sec)\n", wall.Round(time.Millisecond),
		sim.Time(*run).Seconds()/wall.Seconds())
	fmt.Printf("events processed    %d\n", res.Events)
	fmt.Printf("packets injected    %d (%d dropped)\n", res.Packets, res.Drops)
	fmt.Printf("observable flows    %d started, %d completed\n", inst.FlowsStarted(), inst.FlowsCompleted())
	printDist("fct_seconds", res.FCTs)
	printDist("throughput_Bps", res.Throughputs)
	printDist("rtt_seconds", res.RTTs)
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
