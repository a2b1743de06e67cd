package workload

import (
	"fmt"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
)

// Co-flows: groups of flows with ordering dependencies, the workload
// structure of MapReduce and BSP-style data processing. The paper lists
// co-flow modeling as future work (Appendix H: "the ordering and
// dependencies between observable flows are still simulated in full
// fidelity") — this file provides exactly that: dependent flows whose
// start is gated on a parent flow's completion in the full-fidelity
// simulation.

// CoflowConfig describes a synthetic shuffle-style co-flow workload:
// Jobs independent jobs, each consisting of Stages sequential stages of
// Width parallel flows. Stage s+1's flows start when all of stage s's
// flows complete (enforced per-predecessor: each flow waits on one
// assigned parent, a common simplification that preserves the critical
// path).
type CoflowConfig struct {
	Seed       int64
	Jobs       int
	Stages     int
	Width      int // parallel flows per stage
	FlowBytes  int64
	ArrivalGap sim.Time // gap between job submissions
	// StageDelay is computation time between a parent finishing and the
	// dependent flow starting.
	StageDelay sim.Time
}

// Validate reports configuration errors.
func (c CoflowConfig) Validate() error {
	switch {
	case c.Jobs < 1 || c.Stages < 1 || c.Width < 1:
		return fmt.Errorf("workload: coflow needs jobs/stages/width >= 1")
	case c.FlowBytes <= 0:
		return fmt.Errorf("workload: coflow needs positive flow bytes")
	}
	return nil
}

// GenerateCoflows builds the dependent flow set. Flows in the first stage
// of each job carry absolute Start times; later stages carry After (the
// parent flow ID) with Start holding the relative delay after the parent
// completes.
func GenerateCoflows(t *topo.Topology, cfg CoflowConfig) ([]Flow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewStream(cfg.Seed).Derive("coflow")
	var flows []Flow
	// Per-host sequence numbers continue above the range the background
	// generator uses so IDs never collide (it numbers from 0 upward).
	const seqBase = 1 << 30
	seq := make(map[int]uint64)
	nextID := func(src int) uint64 {
		id := flowID(src, seqBase+seq[src])
		seq[src]++
		return id
	}
	for j := 0; j < cfg.Jobs; j++ {
		submit := sim.Time(j) * cfg.ArrivalGap
		var prev []Flow
		for s := 0; s < cfg.Stages; s++ {
			var stage []Flow
			for wIdx := 0; wIdx < cfg.Width; wIdx++ {
				src := rng.Intn(t.Hosts())
				dst := rng.Intn(t.Hosts() - 1)
				if dst >= src {
					dst++
				}
				f := Flow{
					ID:    nextID(src),
					Src:   src,
					Dst:   dst,
					Bytes: cfg.FlowBytes,
				}
				if s == 0 {
					f.Start = submit
				} else {
					f.After = prev[wIdx%len(prev)].ID
					f.Start = cfg.StageDelay // relative to parent completion
				}
				stage = append(stage, f)
			}
			flows = append(flows, stage...)
			prev = stage
		}
	}
	return flows, nil
}

// CriticalPathStages returns the maximum dependency depth of the flow
// set (1 for a dependency-free schedule), a sanity metric for tests.
func CriticalPathStages(flows []Flow) int {
	depth := make(map[uint64]int, len(flows))
	byID := make(map[uint64]Flow, len(flows))
	for _, f := range flows {
		byID[f.ID] = f
	}
	var depthOf func(id uint64, guard int) int
	depthOf = func(id uint64, guard int) int {
		if guard > len(flows) {
			return guard // cycle guard; malformed input
		}
		if d, ok := depth[id]; ok {
			return d
		}
		f, ok := byID[id]
		if !ok {
			return 0
		}
		d := 1
		if f.After != 0 {
			d = depthOf(f.After, guard+1) + 1
		}
		depth[id] = d
		return d
	}
	max := 0
	for _, f := range flows {
		if d := depthOf(f.ID, 0); d > max {
			max = d
		}
	}
	return max
}
