package core

import (
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/metrics"
	"mimicnet/internal/sim"
)

// Tests for the compositions only the role-based engine can express:
// multiple observed (ground-truth) clusters in one fabric, per-cluster
// model overrides, and the concurrent RoleError harness.

// cloneModels round-trips an artifact through Save/LoadModels: identical
// content behind a distinct pointer, which is exactly what forces the
// engine's scheduler grouping down the heterogeneous path.
func cloneModels(t *testing.T, m *MimicModels) *MimicModels {
	t.Helper()
	blob, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := LoadModels(blob)
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

func runRoles(t *testing.T, cfg cluster.Config, roles []ClusterRole, models *MimicModels, until sim.Time) (*Engine, cluster.Results) {
	t.Helper()
	e, err := NewEngine(cfg, roles, models)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(until)
	return e, e.Results()
}

// TestEngineMultiObserved runs a 4-cluster fabric with TWO ground-truth
// clusters ([observed, mimic, observed, mimic]) — the cross-validation
// composition the legacy Composed runtime could not express — end to
// end, sequential and sharded, and checks both observed clusters feed
// the collectors while the mimic clusters stay model-driven.
func TestEngineMultiObserved(t *testing.T) {
	models := trainedForScheduler(t)
	roles := []ClusterRole{
		{Kind: RoleObserved}, {Kind: RoleMimic},
		{Kind: RoleObserved}, {Kind: RoleMimic},
	}
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)
	until := 200 * sim.Millisecond

	seqCfg := cfg
	seqCfg.ShardedRun = -1
	eng, res := runRoles(t, seqCfg, roles, models, until)

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

	// Sharded runs must match sequential metrics exactly (Events differ:
	// sharding adds per-LP scheduler flushes) and be bitwise identical to
	// each other across worker counts.
	var shardedFP string
	for _, workers := range []int{1, 2, 4} {
		shCfg := cfg
		shCfg.ShardedRun = 1
		shCfg.NumWorkers = workers
		sh, shRes := runRoles(t, shCfg, roles, models, until)
		if !sh.Sharded() {
			t.Fatal("forced sharding fell back to sequential")
		}
		sameResults(t, "multi-observed seq vs sharded", res, shRes)
		fp := resultsFingerprint(shRes)
		if shardedFP == "" {
			shardedFP = fp
		} else if fp != shardedFP {
			t.Errorf("workers=%d: sharded multi-observed fingerprint diverged", workers)
		}
	}
}

// TestEnginePerClusterModelOverride gives one mimic cluster its own
// *MimicModels (a Save/Load clone — identical weights, distinct
// pointer). The engine must route that cluster through its own
// scheduler, and because the clone is bit-identical the Results must
// match the homogeneous run exactly — batched lane partitioning cannot
// leak into simulation outcomes.
func TestEnginePerClusterModelOverride(t *testing.T) {
	models := trainedForScheduler(t)
	clone := cloneModels(t, models)
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)
	until := 200 * sim.Millisecond

	homog := ComposedRoles(4)
	hetero := ComposedRoles(4)
	hetero[2].Models = clone // cluster 2 runs its own artifact

	for _, mode := range []struct {
		name       string
		shardedRun int
		workers    int
	}{
		{"seq", -1, 0},
		{"sharded-w2", 1, 2},
	} {
		mcfg := cfg
		mcfg.ShardedRun = mode.shardedRun
		mcfg.NumWorkers = mode.workers

		base, baseRes := runRoles(t, mcfg, homog, models, until)
		over, overRes := runRoles(t, mcfg, hetero, models, until)

		if mode.shardedRun < 0 {
			// Sequential homogeneous fuses all mimics into one scheduler;
			// the override must split cluster 2 off into a second one.
			if got := len(base.scheds); got != 1 {
				t.Fatalf("%s: homogeneous run built %d schedulers, want 1", mode.name, got)
			}
			if got := len(over.scheds); got != 2 {
				t.Fatalf("%s: override run built %d schedulers, want 2", mode.name, got)
			}
		}
		if overRes.Drops != baseRes.Drops || over.ModelPackets() != base.ModelPackets() {
			t.Errorf("%s: override run counters diverged", mode.name)
		}
		// Events legitimately differ (the extra scheduler adds its own
		// flush events); every simulation outcome must be identical.
		sameResults(t, mode.name+" homogeneous vs override", baseRes, overRes)
	}
}

// TestEngineRoleValidation covers the new failure modes of role vectors.
func TestEngineRoleValidation(t *testing.T) {
	models := trainedForScheduler(t)
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(2)

	if _, err := NewEngine(cfg, []ClusterRole{{Kind: RoleObserved}}, models); err == nil {
		t.Error("role vector shorter than cluster count accepted")
	}
	if _, err := NewEngine(cfg, []ClusterRole{{Kind: RoleMimic}, {Kind: RoleMimic}}, models); err == nil {
		t.Error("role vector without an observed cluster accepted")
	}
	if _, err := NewEngine(cfg, []ClusterRole{{Kind: RoleObserved}, {Kind: RoleKind(250)}}, models); err == nil {
		t.Error("unknown role kind accepted")
	}
	if _, err := NewEngine(cfg, ComposedRoles(2), nil); err == nil {
		t.Error("mimic role without default or override models accepted")
	}
	// An all-observed vector needs no models at all: a plain full-fidelity
	// fabric expressed through the engine.
	e, err := NewEngine(cfg, []ClusterRole{{Kind: RoleObserved}, {Kind: RoleObserved}}, nil)
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
		hyb, err := NewHybrid(cfg, models, dir)
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
		eng, got := runRoles(t, cfg, make([]ClusterRole, n), nil, until)
		if eng.Sharded() {
			t.Fatalf("n=%d: default config ran sharded", n)
		}
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
