package core

import (
	"sync"

	"mimicnet/internal/cluster"
	"mimicnet/internal/metrics"
	"mimicnet/internal/sim"
)

// This file implements the paper's Appendix B: separate ingress/egress
// model tuning and debugging via *hybrid* Mimic clusters. A hybrid
// composition keeps a full-fidelity 2-cluster network but routes exactly
// one traffic direction of the modeled cluster through the trained model,
// while the opposite direction (and all internal traffic) continues
// through the real simulated network. Comparing a hybrid run against the
// all-real run isolates one direction's model error.
//
// The paper's duplicator trick — feeding the real network a copy of the
// modeled direction's traffic so that cross-direction congestion coupling
// is preserved — corresponds here to *not* removing the modeled cluster's
// network: the packet is duplicated conceptually, with the model's output
// used for delivery and the real network's copy retained for congestion.
//
// The runtime is the role-based Engine (engine.go) built from
// hybridRoles: cluster 0 observed, cluster 1 roleHybridIngress or
// roleHybridEgress.

// newHybrid builds the test framework for one direction: a 2-cluster
// simulation in which that direction of the modeled cluster's external
// traffic is served by the trained internal model. cfg must be the
// 2-cluster base configuration the models were trained from.
func newHybrid(cfg cluster.Config, models *MimicModels, dir Direction) (*Engine, error) {
	cfg.Topo = cfg.Topo.WithClusters(2)
	return startEngine(cfg, hybridRoles(dir), models)
}

// RoleError runs the all-real reference and both hybrid directions
// concurrently (each engine owns its simulators, RNG streams, and
// collectors, so the three runs never share mutable state) and returns
// the per-direction W1(FCT) against the reference — the paper's
// mechanism for attributing approximation error to one model. The
// results are identical to running the three simulations back to back.
func RoleError(cfg cluster.Config, models *MimicModels, until sim.Time) (ingW1, egW1 float64, err error) {
	// Construct everything up front so validation errors surface before
	// any simulation work starts.
	ref := cfg
	ref.Topo = cfg.Topo.WithClusters(2)
	ref.Observable = 0
	inst, err := cluster.New(ref)
	if err != nil {
		return 0, 0, err
	}
	var hybs [2]*Engine
	for _, dir := range []Direction{Ingress, Egress} {
		h, herr := newHybrid(cfg, models, dir)
		if herr != nil {
			return 0, 0, herr
		}
		hybs[dir] = h
	}

	var wg sync.WaitGroup
	wg.Add(3)
	var truth []float64
	go func() {
		defer wg.Done()
		inst.Run(until)
		truth = inst.Results().FCTs
	}()
	var fcts [2][]float64
	for _, dir := range []Direction{Ingress, Egress} {
		dir := dir
		go func() {
			defer wg.Done()
			hybs[dir].Run(until)
			fcts[dir] = hybs[dir].Results().FCTs
		}()
	}
	wg.Wait()
	return metrics.W1(fcts[Ingress], truth), metrics.W1(fcts[Egress], truth), nil
}
