// Command trace runs the small-scale 2-cluster full-fidelity simulation
// with MimicNet's boundary taps and dumps the matched packet trace as
// JSON Lines — the data-generation step of the workflow (paper §5.1) as
// a standalone tool. Feed the output to `mimicnet -trace` to train from
// a saved trace instead of re-simulating.
//
// Example:
//
//	trace -protocol dctcp -run 2s -duration 1s > dctcp.trace
//	mimicnet -trace dctcp.trace -protocol dctcp -small-run 2s -duration 1s -clusters 64
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/serve"
)

func main() {
	var (
		racks    = flag.Int("racks", 2, "racks per cluster")
		hosts    = flag.Int("hosts", 4, "hosts per rack")
		aggs     = flag.Int("aggs", 2, "aggregation switches per cluster")
		cores    = flag.Int("cores-per-agg", 2, "core switches per agg index")
		protocol = flag.String("protocol", "newreno", "transport protocol")
		load     = flag.Float64("load", 0.7, "offered load")
		meanFlow = flag.Float64("mean-flow", 150_000, "mean flow size in bytes")
		duration = flag.Duration("duration", 150*time.Millisecond, "workload horizon (simulated)")
		run      = flag.Duration("run", 250*time.Millisecond, "simulated time (mimicnet's -small-run)")
		seed     = flag.Int64("seed", 1, "workload seed")
		ecnK     = flag.Int("ecn-k", 20, "ECN marking threshold (DCTCP)")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	// The same 2-cluster configuration mimicnet's own datagen runs: -run
	// is its -small-run and -duration its workload horizon.
	spec := serve.JobSpec{
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
		SmallRunMs:    float64(*run) / float64(time.Millisecond),
	}.Normalized()
	fatal(spec.Validate())
	cfg, _, err := spec.Configs()
	fatal(err)

	inst, err := cluster.New(cfg)
	fatal(err)
	tracer := core.NewTracer(inst.Topo, 1)
	tracer.Attach(inst)
	inst.Run(spec.SmallRunTime())

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fatal(err)
		defer f.Close()
		w = f
	}
	records := tracer.Records()
	fatal(core.WriteTrace(w, records))
	ing, eg := tracer.ByDirection()
	fmt.Fprintf(os.Stderr, "trace: %d records (%d ingress, %d egress), %d still in flight\n",
		len(records), len(ing), len(eg), tracer.PendingCount())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}
