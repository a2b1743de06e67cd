package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mimicnet/internal/sim"
)

// Groups of simulations: the paper evaluates "partitioned" (the horizon
// split across instances) and "parallel" (independent full-horizon
// instances with different seeds) execution modes (§9.3). Group runs
// either mode as a library feature with bounded concurrency.

// GroupResult aggregates a group run.
type GroupResult struct {
	Results []Results     // per-instance, in input order
	Wall    time.Duration // time until the whole group finished
}

// RunGroup executes one simulation per config concurrently (bounded by
// parallelism; 0 means NumCPU) and runs each to the given horizon.
// Configs are validated up front so a late failure cannot waste the
// group's work.
func RunGroup(cfgs []Config, until sim.Time, parallelism int) (GroupResult, error) {
	if len(cfgs) == 0 {
		return GroupResult{}, fmt.Errorf("cluster: empty group")
	}
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	// Validate by constructing all instances first; construction is cheap
	// relative to running.
	insts := make([]*Simulation, len(cfgs))
	for i, cfg := range cfgs {
		inst, err := New(cfg)
		if err != nil {
			return GroupResult{}, fmt.Errorf("cluster: group member %d: %w", i, err)
		}
		insts[i] = inst
	}
	t0 := time.Now()
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	results := make([]Results, len(insts))
	for i, inst := range insts {
		wg.Add(1)
		go func(i int, inst *Simulation) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			inst.Run(until)
			results[i] = inst.Results()
		}(i, inst)
	}
	wg.Wait()
	return GroupResult{Results: results, Wall: time.Since(t0)}, nil
}

// PartitionedConfigs derives n configs that split the horizon of base
// into n seed-varied chunks (the paper's partitioned mode: each instance
// simulates S/n seconds). Returns the per-instance horizon.
func PartitionedConfigs(base Config, n int, horizon sim.Time) ([]Config, sim.Time) {
	chunk := sim.Time(uint64(horizon) / uint64(n))
	if chunk <= 0 {
		chunk = horizon
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfg := base
		cfg.Workload.Seed = base.Workload.Seed + int64(i) + 1
		if cfg.Workload.Duration > chunk {
			cfg.Workload.Duration = chunk
		}
		cfgs[i] = cfg
	}
	return cfgs, chunk
}

// ParallelConfigs derives n full-horizon configs with distinct seeds
// (the paper's parallel mode for maximizing aggregate throughput).
func ParallelConfigs(base Config, n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfg := base
		cfg.Workload.Seed = base.Workload.Seed + int64(i) + 1
		cfgs[i] = cfg
	}
	return cfgs
}
