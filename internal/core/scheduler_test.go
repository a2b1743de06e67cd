package core

import (
	"fmt"
	"sync"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/sim"
)

var (
	schedArtOnce sync.Once
	schedArt     *Artifacts
	schedArtErr  error
)

// trainedForScheduler trains one small artifact set shared by the
// determinism tests (training dominates their runtime).
func trainedForScheduler(t *testing.T) *Artifacts {
	t.Helper()
	schedArtOnce.Do(func() {
		pcfg := DefaultPipelineConfig(fastBase())
		pcfg.SmallScaleDuration = 200 * sim.Millisecond
		pcfg.Train = fastTrain()
		schedArt, schedArtErr = RunPipeline(pcfg)
	})
	if schedArtErr != nil {
		t.Fatal(schedArtErr)
	}
	return schedArt
}

// runComposed runs an n-cluster composition; inline selects the
// per-packet inference oracle (newEngine's unexported argument) instead
// of the batched scheduler.
func runComposed(t *testing.T, art *Artifacts, clusters int, inline bool, until sim.Time) (cluster.Results, *Engine) {
	t.Helper()
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(clusters)
	comp, err := newEngine(cfg, ComposedRoles(clusters), art.Models, inline)
	if err != nil {
		t.Fatal(err)
	}
	comp.Run(until)
	return comp.Results(), comp
}

func sameResults(t *testing.T, label string, a, b cluster.Results) {
	t.Helper()
	if len(a.FCTByID) != len(b.FCTByID) {
		t.Errorf("%s: FCT count %d vs %d", label, len(a.FCTByID), len(b.FCTByID))
	}
	for id, fct := range a.FCTByID {
		if got, ok := b.FCTByID[id]; !ok {
			t.Errorf("%s: flow %s missing", label, id)
		} else if got != fct {
			t.Errorf("%s: flow %s FCT %v vs %v", label, id, fct, got)
		}
	}
	cmpSlice := func(name string, x, y []float64) {
		if len(x) != len(y) {
			t.Errorf("%s: %s count %d vs %d", label, name, len(x), len(y))
			return
		}
		for i := range x {
			if x[i] != y[i] {
				t.Errorf("%s: %s[%d] = %v vs %v", label, name, i, x[i], y[i])
				return
			}
		}
	}
	cmpSlice("FCTs", a.FCTs, b.FCTs)
	cmpSlice("Throughputs", a.Throughputs, b.Throughputs)
	cmpSlice("RTTs", a.RTTs, b.RTTs)
	if a.Drops != b.Drops {
		t.Errorf("%s: drops %d vs %d", label, a.Drops, b.Drops)
	}
	if a.Packets != b.Packets {
		t.Errorf("%s: packets %d vs %d", label, a.Packets, b.Packets)
	}
}

// TestGoldenDeterminism is the engine's end-to-end correctness witness:
// a seeded 3-cluster composition (3 clusters so feeders are active) must
// produce identical metrics (a) across two batched runs, and (b) between
// the batched engine and the sequential per-packet path.
func TestGoldenDeterminism(t *testing.T) {
	art := trainedForScheduler(t)
	const until = 300 * sim.Millisecond

	seqRes, seqComp := runComposed(t, art, 3, true, until)
	batRes, batComp := runComposed(t, art, 3, false, until)
	batRes2, batComp2 := runComposed(t, art, 3, false, until)

	if len(seqRes.FCTByID) == 0 {
		t.Fatal("no flows completed; test exercises nothing")
	}
	sameResults(t, "batched-vs-batched", batRes, batRes2)
	sameResults(t, "sequential-vs-batched", seqRes, batRes)

	if seq, bat := seqComp.InferenceSteps(), batComp.InferenceSteps(); seq != bat {
		t.Errorf("inference steps: sequential %d vs batched %d", seq, bat)
	}
	if batComp.InferenceSteps() == 0 {
		t.Error("batched run recorded no inference steps")
	}
	if batComp.Scheduler().BatchedSteps != batComp2.Scheduler().BatchedSteps {
		t.Error("batched runs disagree on scheduler step count")
	}
	s := batComp.Scheduler()
	t.Logf("scheduler: window=%v flushes=%d batchedSteps=%d maxBatch=%d",
		s.Window(), s.Flushes, s.BatchedSteps, s.MaxBatch)
	if seqComp.Scheduler() != nil {
		t.Error("sequential run unexpectedly created a scheduler")
	}
	// cmd/mimicnet's drop line, as it prints it from MimicDrops(dir).
	const wantDrops = "mimic drops             451 ingress, 1045 egress"
	if got := fmt.Sprintf("mimic drops             %d ingress, %d egress",
		batComp.MimicDrops(Ingress), batComp.MimicDrops(Egress)); got != wantDrops {
		t.Errorf("drop line = %q, want %q", got, wantDrops)
	}
}

// TestGoldenDeterminismHybrid repeats the witness for the hybrid
// (Appendix B) harness in both directions.
func TestGoldenDeterminismHybrid(t *testing.T) {
	art := trainedForScheduler(t)
	const until = 250 * sim.Millisecond
	for _, dir := range []Direction{Ingress, Egress} {
		run := func(inline bool) cluster.Results {
			h, err := newEngine(fastBase(), HybridRoles(dir), art.Models, inline)
			if err != nil {
				t.Fatal(err)
			}
			h.Run(until)
			if h.ModelPackets() == 0 {
				t.Fatalf("%s hybrid served no packets", dir)
			}
			return h.Results()
		}
		sameResults(t, "hybrid-"+dir.String(), run(true), run(false))
	}
}

// TestSchedulerWindowOverride checks custom collection windows: a
// negative window (flush at the same timestamp) must still match the
// sequential path, and an over-causal window must still complete and
// stay internally deterministic.
func TestSchedulerWindowOverride(t *testing.T) {
	art := trainedForScheduler(t)
	const until = 200 * sim.Millisecond

	run := func(inline bool, window sim.Time) cluster.Results {
		cfg := fastBase()
		cfg.Topo = cfg.Topo.WithClusters(3)
		cfg.BatchWindow = window
		comp, err := newEngine(cfg, ComposedRoles(3), art.Models, inline)
		if err != nil {
			t.Fatal(err)
		}
		comp.Run(until)
		return comp.Results()
	}

	sameResults(t, "zero-window", run(true, 0), run(false, -1))

	wide := DefaultBatchWindow(art.Models) * 64
	sameResults(t, "wide-window-determinism", run(false, wide), run(false, wide))
}

// TestDefaultBatchWindow pins the causality rule: the window is the
// smaller latency lower bound across the two direction models.
func TestDefaultBatchWindow(t *testing.T) {
	art := trainedForScheduler(t)
	m := art.Models
	lo := m.Ingress.Bounds.Lo
	if m.Egress.Bounds.Lo < lo {
		lo = m.Egress.Bounds.Lo
	}
	want := sim.FromSeconds(lo)
	if lo <= 0 {
		want = 0
	}
	if got := DefaultBatchWindow(m); got != want {
		t.Errorf("DefaultBatchWindow = %v, want %v", got, want)
	}
	if w := DefaultBatchWindow(m); w > 0 {
		maxLat := sim.FromSeconds(lo)
		if w > maxLat {
			t.Errorf("window %v exceeds causality bound %v", w, maxLat)
		}
	}
}
