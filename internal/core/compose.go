package core

import (
	"context"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/sim"
)

// Composed names the Engine built from composedRoles: one real
// (observable) cluster plus N−1 Mimic clusters and a proportional number
// of Core switches (paper §7.1). The alias is pinned by the repo's
// benchmark — bench/ declares a *core.Composed and may not change in a
// product PR — and has no other user.
type Composed = Engine

// Compose builds the large-scale approximate simulation. cfg.Topo.Clusters
// sets N; all other parameters should match the small-scale run that
// trained the models ("Aside from the number of clusters, all other
// parameters are kept constant", §7.1).
func Compose(cfg cluster.Config, models *MimicModels) (*Engine, error) {
	n := cfg.Topo.Clusters
	if n < 0 {
		n = 0 // invalid; startEngine reports the real error
	}
	return startEngine(cfg, composedRoles(n), models)
}

// Report is the outcome of one estimate: the composed run's metric
// distributions and the counters that explain its cost.
type Report struct {
	Results        cluster.Results // Results.Cancelled marks a partial run
	FlowsStarted   int
	FlowsCompleted int
	InferenceSteps uint64
	FeederEvents   uint64
	MimicDrops     [2]uint64     // indexed by Direction
	Wall           time.Duration // build + run: Table 2's "large-scale simulation" row
}

// Estimate is the workflow's last step (Figure 3 ❺): compose cfg's
// N clusters (1 real + N−1 Mimics) from models, run them to until, and
// report. progress, if non-nil, is the Engine's Progress callback; ctx
// cancels the run cooperatively, leaving a partial Report. The error is
// the composition's; a cancelled run is not an error.
func Estimate(ctx context.Context, cfg cluster.Config, models *MimicModels, until sim.Time, progress func(now sim.Time, events uint64)) (*Report, error) {
	t0 := time.Now()
	e, err := Compose(cfg, models)
	if err != nil {
		return nil, err
	}
	e.Progress = progress
	e.RunContext(ctx, until)
	wall := time.Since(t0)
	return &Report{
		Results:        e.Results(),
		FlowsStarted:   e.FlowsStarted(),
		FlowsCompleted: e.FlowsCompleted(),
		InferenceSteps: e.InferenceSteps(),
		FeederEvents:   e.FeederEvents(),
		MimicDrops:     [2]uint64{Ingress: e.MimicDrops(Ingress), Egress: e.MimicDrops(Egress)},
		Wall:           wall,
	}, nil
}
