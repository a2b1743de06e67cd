// Command flowsim runs the flow-level (max-min fair fluid) baseline
// simulator over the same topology and workload as fullsim. It is fast
// but blind to packet effects; compare its distributions against fullsim
// to see the accuracy gap MimicNet closes (paper Figures 1 and 7).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mimicnet/internal/flowsim"
	"mimicnet/internal/serve"
	"mimicnet/internal/stats"
)

func main() {
	var (
		clusters = flag.Int("clusters", 2, "number of clusters")
		racks    = flag.Int("racks", 2, "racks per cluster")
		hosts    = flag.Int("hosts", 4, "hosts per rack")
		aggs     = flag.Int("aggs", 2, "aggregation switches per cluster")
		cores    = flag.Int("cores-per-agg", 2, "core switches per agg index")
		load     = flag.Float64("load", 0.7, "offered load")
		meanFlow = flag.Float64("mean-flow", 150_000, "mean flow size in bytes")
		duration = flag.Duration("duration", 150*time.Millisecond, "workload horizon (simulated)")
		run      = flag.Duration("run", 300*time.Millisecond, "simulated time to run")
		seed     = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	spec := serve.JobSpec{
		Clusters:      *clusters,
		Racks:         *racks,
		Hosts:         *hosts,
		Aggs:          *aggs,
		CoresPerAgg:   *cores,
		Load:          *load,
		MeanFlowBytes: *meanFlow,
		Seed:          *seed,
		WorkloadMs:    float64(*duration) / float64(time.Millisecond),
		RunMs:         float64(*run) / float64(time.Millisecond),
	}.Normalized()
	fatal(spec.Validate())
	base, _, err := spec.Configs()
	fatal(err)

	t0 := time.Now()
	res, err := flowsim.Run(flowsim.Config{
		Topo:     base.Topo.WithClusters(spec.Clusters),
		Workload: base.Workload,
		LinkBps:  base.Link.RateBps,
	}, spec.RunTime())
	fatal(err)
	wall := time.Since(t0)
	fmt.Printf("flowsim: %d clusters, %d flows completed, %d rate recomputations\n",
		spec.Clusters, res.Completed, res.Events)
	fmt.Printf("wall clock          %v (%.2f sim-sec/sec)\n",
		wall.Round(time.Millisecond), spec.RunTime().Seconds()/wall.Seconds())
	printDist("fct_seconds", res.FCTs)
	printDist("throughput_Bps", res.Throughputs)
	fmt.Println("rtt_seconds         (not available at flow granularity)")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowsim:", err)
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
