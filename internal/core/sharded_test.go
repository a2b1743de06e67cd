package core

import (
	"fmt"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/sim"
)

// runComposedMode runs a composition with explicit sharding knobs.
// shardedRun follows cluster.Config.ShardedRun (-1 sequential, 1 forced).
func runComposedMode(t *testing.T, art *Artifacts, clusters, shardedRun, workers int, until sim.Time) (cluster.Results, *Engine) {
	t.Helper()
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(clusters)
	cfg.ShardedRun = shardedRun
	cfg.NumWorkers = workers
	comp, err := Compose(cfg, art.Models)
	if err != nil {
		t.Fatal(err)
	}
	comp.Run(until)
	return comp.Results(), comp
}

// TestShardedComposedMatchesSequential is the tentpole's golden witness:
// a composition sharded into one LP per cluster must produce bitwise-
// identical metrics to the sequential event loop, across composition
// sizes. At N=4 it additionally checks worker-count invariance (1 worker
// exercises the windowed-but-serial path, 8 oversubscribes the LPs).
//
// Results.Events is deliberately not compared: sharded compositions run
// one inference-flush event chain per Mimic LP where the sequential path
// runs a single global one, so the operational event count differs even
// though every metric is identical (it is asserted equal across worker
// counts below, which shares the per-LP scheduler structure).
func TestShardedComposedMatchesSequential(t *testing.T) {
	art := trainedForScheduler(t)
	for _, tc := range []struct {
		n     int
		until sim.Time
	}{
		{2, 250 * sim.Millisecond},
		{4, 200 * sim.Millisecond},
		{8, 120 * sim.Millisecond},
	} {
		seq, seqComp := runComposedMode(t, art, tc.n, -1, 0, tc.until)
		if len(seq.FCTByID) == 0 {
			t.Fatalf("n=%d: no flows completed; test exercises nothing", tc.n)
		}
		if seqComp.Sharded() {
			t.Fatalf("n=%d: ShardedRun=-1 still sharded", tc.n)
		}
		workerCounts := []int{4}
		if tc.n == 4 {
			workerCounts = []int{1, 4, 8}
		}
		var prev cluster.Results
		for i, nw := range workerCounts {
			shr, comp := runComposedMode(t, art, tc.n, 1, nw, tc.until)
			if !comp.Sharded() {
				t.Fatalf("n=%d: forced sharding fell back to sequential (no lookahead margin?)", tc.n)
			}
			par := comp.Parallel()
			if par.Barriers == 0 {
				t.Errorf("n=%d nw=%d: no synchronization windows ran", tc.n, nw)
			}
			if par.CausalityClamps != 0 {
				t.Errorf("n=%d nw=%d: %d causality clamps; cross-LP margins are wrong",
					tc.n, nw, par.CausalityClamps)
			}
			sameResults(t, fmt.Sprintf("sharded-n%d-w%d", tc.n, nw), seq, shr)
			if got, want := comp.InferenceSteps(), seqComp.InferenceSteps(); got != want {
				t.Errorf("n=%d nw=%d: inference steps %d vs %d", tc.n, nw, got, want)
			}
			if i > 0 && shr.Events != prev.Events {
				t.Errorf("n=%d: events %d at nw=%d vs %d at nw=%d — workers changed the schedule",
					tc.n, shr.Events, nw, prev.Events, workerCounts[i-1])
			}
			prev = shr
		}
		t.Logf("n=%d: %d flows identical across modes", tc.n, len(seq.FCTByID))
	}
}

// TestShardedComposedSequentialInference repeats the witness with the
// per-request oracle: one flush per request must also be shard-invariant
// (egress continuations then carry the full latency floor as cross-LP
// margin).
func TestShardedComposedSequentialInference(t *testing.T) {
	art := trainedForScheduler(t)
	const until = 200 * sim.Millisecond
	run := func(shardedRun int) cluster.Results {
		cfg := fastBase()
		cfg.Topo = cfg.Topo.WithClusters(3)
		cfg.ShardedRun = shardedRun
		cfg.NumWorkers = 4
		comp, err := newOracleEngine(cfg, ComposedRoles(3), art.Models)
		if err != nil {
			t.Fatal(err)
		}
		comp.Run(until)
		return comp.Results()
	}
	seq, shr := run(-1), run(1)
	if len(seq.FCTByID) == 0 {
		t.Fatal("no flows completed")
	}
	sameResults(t, "sharded-seqinfer", seq, shr)
}

// TestShardedHybridMatchesSequential extends the golden witness to the
// Appendix-B hybrid harness: two LPs (observable+cores, modeled cluster).
//
// The ingress hybrid matches the unsharded event loop bitwise, like the
// composed path. The egress hybrid is the one configuration where the
// documented same-nanosecond tie class (scheduler.go) has measurable
// incidence: egress predictions clamped to the latency floor re-enter
// the full-fidelity cluster-0 fabric on the same nanosecond lattice as
// real traffic, and at a full queue the arrival order of such a tie
// decides which packet drops. Remote events are inserted at window
// barriers while the unsharded heap inserts them mid-window, so those
// ties can order differently across the two *modes*. Within the sharded
// mode the (time, srcLP, srcSeq) rule makes the schedule exact, which is
// what the egress case asserts: bitwise equality between serial (1
// worker) and parallel execution of the sharded schedule.
func TestShardedHybridMatchesSequential(t *testing.T) {
	art := trainedForScheduler(t)
	const until = 250 * sim.Millisecond
	run := func(dir Direction, shardedRun, nw int) (cluster.Results, *Engine) {
		cfg := fastBase()
		cfg.ShardedRun = shardedRun
		cfg.NumWorkers = nw
		h, err := NewHybrid(cfg, art.Models, dir)
		if err != nil {
			t.Fatal(err)
		}
		h.Run(until)
		return h.Results(), h
	}

	// Ingress: unsharded vs sharded, bitwise.
	seq, seqH := run(Ingress, -1, 0)
	shr, shrH := run(Ingress, 1, 4)
	if seqH.ModelPackets() == 0 {
		t.Fatal("ingress hybrid served no packets")
	}
	if !shrH.Sharded() {
		t.Fatal("ingress: forced sharding fell back to sequential")
	}
	if shrH.par.CausalityClamps != 0 {
		t.Errorf("ingress: %d causality clamps", shrH.par.CausalityClamps)
	}
	sameResults(t, "sharded-hybrid-ingress", seq, shr)
	if seqH.ModelPackets() != shrH.ModelPackets() {
		t.Errorf("ingress: model packets %d vs %d", seqH.ModelPackets(), shrH.ModelPackets())
	}

	// Egress: serial vs parallel execution of the sharded schedule. The
	// (time, srcLP, srcSeq) tie rule (asserted directly by the sim
	// package's TestRemoteTieOrdering) must make the schedule exact at
	// EVERY worker count — fingerprint-identical, Events included — plus
	// run-to-run deterministic.
	one, oneH := run(Egress, 1, 1)
	if oneH.ModelPackets() == 0 {
		t.Fatal("egress hybrid served no packets")
	}
	oneFP := resultsFingerprint(one)
	for _, nw := range []int{2, 4, 8} {
		res, h := run(Egress, 1, nw)
		if fp := resultsFingerprint(res); fp != oneFP {
			t.Errorf("egress: workers=%d fingerprint diverged from workers=1 — same-ns ties reordered", nw)
		}
		if h.ModelPackets() != oneH.ModelPackets() {
			t.Errorf("egress: model packets %d at nw=%d vs %d at nw=1", h.ModelPackets(), nw, oneH.ModelPackets())
		}
		if h.par.CausalityClamps != 0 {
			t.Errorf("egress: %d causality clamps at nw=%d", h.par.CausalityClamps, nw)
		}
	}
	four2, _ := run(Egress, 1, 4)
	if resultsFingerprint(four2) != oneFP {
		t.Error("egress: repeat run diverged — schedule not run-to-run deterministic")
	}
}
