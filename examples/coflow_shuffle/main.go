// Co-flow (MapReduce shuffle) workload with instrumentation.
//
// The paper's Appendix H names co-flow support — ordering and
// dependencies between flows, as in MapReduce/BSP systems — as the
// workload structure MimicNet should eventually model. This example runs
// staged shuffle jobs *in full fidelity* over background traffic: each
// stage's flows start only when the previous stage completes, and the
// observable cluster is instrumented with the queue-depth sampler the
// paper's "arbitrary instrumentation" promise refers to.
//
//	go run ./examples/coflow_shuffle
package main

import (
	"fmt"
	"log"
	"sort"

	"mimicnet/internal/cluster"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
	"mimicnet/internal/workload"
)

func main() {
	spec := serve.JobSpec{
		MeanFlowBytes: 20_000,
		Load:          0.4, // background load under the shuffle jobs
		WorkloadMs:    200,
	}.Normalized()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	cfg, _, err := spec.Configs()
	if err != nil {
		log.Fatal(err)
	}
	inst, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	jobs := workload.CoflowConfig{
		Seed: 11, Jobs: 4, Stages: 3, Width: 4,
		FlowBytes:  60_000,
		ArrivalGap: 20 * sim.Millisecond,
		StageDelay: 2 * sim.Millisecond,
	}
	coflows, err := workload.GenerateCoflows(inst.Topo, jobs)
	if err != nil {
		log.Fatal(err)
	}
	if err := inst.AddFlows(coflows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %d background flows + %d shuffle jobs (%d coflow flows, critical path %d stages)\n",
		len(inst.Flows()), jobs.Jobs, len(coflows), workload.CriticalPathStages(coflows))

	sampler := inst.SampleQueues(5 * sim.Millisecond)
	inst.Run(2 * sim.Second)

	// Per-job makespan: from submission to the last completed flow of the
	// job's final stage (using the collector's flow records).
	recs := make(map[string]sim.Time)
	for _, r := range inst.Collector.Flows() {
		if r.Complete {
			recs[r.ID] = r.End
		}
	}
	type jobSpan struct {
		submit, finish sim.Time
		done, total    int
	}
	spans := make([]jobSpan, jobs.Jobs)
	perJob := jobs.Stages * jobs.Width
	for i, f := range coflows {
		j := i / perJob
		if f.After == 0 && (spans[j].submit == 0 || f.Start < spans[j].submit) {
			spans[j].submit = f.Start
		}
		spans[j].total++
		if end, ok := recs[fmt.Sprint(f.ID)]; ok {
			spans[j].done++
			if end > spans[j].finish {
				spans[j].finish = end
			}
		}
	}
	fmt.Printf("\n%-5s %-10s %-10s %-12s %s\n", "job", "submit_s", "finish_s", "makespan_s", "flows_observed")
	for j, s := range spans {
		fmt.Printf("%-5d %-10.4f %-10.4f %-12.4f %d/%d\n",
			j, s.submit.Seconds(), s.finish.Seconds(),
			(s.finish - s.submit).Seconds(), s.done, s.total)
	}

	// Queue instrumentation summary: the deepest observable-cluster queue
	// and the share of samples above half of it.
	maxDepth := sampler.MaxDepth()
	hot := 0
	for _, smp := range sampler.Samples {
		if smp.Packets > maxDepth/2 {
			hot++
		}
	}
	fmt.Printf("\nqueue depth: %d samples, max %d pkts, %.1f%% of samples above half-max\n",
		len(sampler.Samples), maxDepth, 100*float64(hot)/float64(len(sampler.Samples)))

	fcts := inst.Results().FCTs
	sort.Float64s(fcts)
	if len(fcts) > 0 {
		fmt.Printf("background+shuffle FCT p50/p99: %.4f / %.4f s (%d flows)\n",
			fcts[len(fcts)/2], fcts[int(float64(len(fcts))*0.99)], len(fcts))
	}
}
