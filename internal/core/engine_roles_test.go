package core

import (
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/metrics"
	"mimicnet/internal/sim"
)

// Tests for the compositions only the role-based engine can express:
// multiple observed (ground-truth) clusters in one fabric, and the
// concurrent RoleError harness.

func runRoles(t *testing.T, cfg cluster.Config, roles []roleKind, models *MimicModels, until sim.Time) (*Engine, cluster.Results) {
	t.Helper()
	e, err := startEngine(cfg, roles, models)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(until)
	return e, e.Results()
}

// TestEngineMultiObserved runs a 4-cluster fabric with TWO ground-truth
// clusters ([observed, mimic, observed, mimic]) — the cross-validation
// composition the legacy Composed runtime could not express — end to
// end, and checks both observed clusters feed the collectors while the
// mimic clusters stay model-driven.
func TestEngineMultiObserved(t *testing.T) {
	models := trainedForScheduler(t)
	roles := []roleKind{roleObserved, roleMimic, roleObserved, roleMimic}
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)
	until := 200 * sim.Millisecond

	eng, res := runRoles(t, cfg, roles, models, until)

	if len(res.FCTByID) == 0 {
		t.Fatal("no flows completed")
	}
	if len(res.RTTs) == 0 {
		t.Error("observed clusters produced no RTT samples")
	}
	if eng.ModelPackets() == 0 {
		t.Error("mimic clusters served no packets through the models")
	}
	// Throughput samples must come from hosts in BOTH observed clusters:
	// the per-host byte collectors only run where the role is observed.
	th := res.Throughputs
	if len(th) == 0 {
		t.Fatal("no throughput samples")
	}
	// A flow schedule touching two full-fidelity clusters must include
	// real flows sourced in cluster 2 (the second observed cluster).
	var fromSecond int
	for _, f := range eng.rt.Flows() {
		if eng.rt.Topo.ClusterOf(f.Src) == 2 {
			fromSecond++
		}
	}
	if fromSecond == 0 {
		t.Error("no real flows sourced in the second observed cluster")
	}
}

// TestEngineRoleValidation covers the new failure modes of role vectors.
func TestEngineRoleValidation(t *testing.T) {
	models := trainedForScheduler(t)
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(2)

	if _, err := startEngine(cfg, []roleKind{roleObserved}, models); err == nil {
		t.Error("role vector shorter than cluster count accepted")
	}
	if _, err := startEngine(cfg, []roleKind{roleMimic, roleMimic}, models); err == nil {
		t.Error("role vector without an observed cluster accepted")
	}
	if _, err := startEngine(cfg, []roleKind{roleObserved, roleKind(250)}, models); err == nil {
		t.Error("unknown role kind accepted")
	}
	if _, err := startEngine(cfg, composedRoles(2), nil); err == nil {
		t.Error("mimic role without models accepted")
	}
	// An all-observed vector needs no models at all: a plain full-fidelity
	// fabric expressed through the engine.
	e, err := startEngine(cfg, []roleKind{roleObserved, roleObserved}, nil)
	if err != nil {
		t.Fatalf("all-observed vector rejected: %v", err)
	}
	e.Run(100 * sim.Millisecond)
	if e.ModelPackets() != 0 {
		t.Error("all-observed fabric touched a model")
	}
	if len(e.Results().FCTByID) == 0 {
		t.Error("all-observed fabric completed no flows")
	}
}

// TestRoleErrorMatchesSequential proves the concurrent RoleError harness
// returns exactly the values of the legacy back-to-back procedure
// (reference run, then each hybrid in turn).
func TestRoleErrorMatchesSequential(t *testing.T) {
	models := trainedForScheduler(t)
	cfg := fastBase()
	until := 250 * sim.Millisecond

	ref := cfg
	ref.Topo = cfg.Topo.WithClusters(2)
	ref.Observable = 0
	inst, err := cluster.New(ref)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(until)
	truth := inst.Results().FCTs
	var want [2]float64
	for _, dir := range []Direction{Ingress, Egress} {
		hyb, err := newHybrid(cfg, models, dir)
		if err != nil {
			t.Fatal(err)
		}
		hyb.Run(until)
		want[dir] = metrics.W1(hyb.Results().FCTs, truth)
	}

	ingW1, egW1, err := RoleError(cfg, models, until)
	if err != nil {
		t.Fatal(err)
	}
	if ingW1 != want[Ingress] || egW1 != want[Egress] {
		t.Errorf("concurrent RoleError (%v, %v) != sequential (%v, %v)",
			ingW1, egW1, want[Ingress], want[Egress])
	}
}

// TestAllObservedEngineMatchesFullFidelity pins the equivalence Figure 2
// rests on: the sequential Engine over an all-observed role vector is the
// full-fidelity simulator, with the same Events, Packets and Drops as
// cluster.New. The FCT counts differ by design: the Engine records every
// flow, while cluster.New records only flows that touch its observable
// cluster.
func TestAllObservedEngineMatchesFullFidelity(t *testing.T) {
	const until = 200 * sim.Millisecond
	for _, n := range []int{2, 4} {
		cfg := fastBase()
		cfg.Topo = cfg.Topo.WithClusters(n)
		inst, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(until)
		full := inst.Results()
		_, got := runRoles(t, cfg, make([]roleKind, n), nil, until)
		if full.Events == 0 || full.Packets == 0 {
			t.Fatalf("n=%d: full-fidelity run did nothing", n)
		}
		if got.Events != full.Events || got.Packets != full.Packets || got.Drops != full.Drops {
			t.Errorf("n=%d: engine events/packets/drops %d/%d/%d, full fidelity %d/%d/%d",
				n, got.Events, got.Packets, got.Drops, full.Events, full.Packets, full.Drops)
		}
		if len(got.FCTs) < len(full.FCTs) {
			t.Errorf("n=%d: engine recorded %d FCTs, fewer than full fidelity's %d observable ones",
				n, len(got.FCTs), len(full.FCTs))
		}
	}
}
