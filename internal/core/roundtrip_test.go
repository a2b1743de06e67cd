package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/sim"
)

// TestModelsSaveLoadRecompose closes the serialization gap end to end:
// Save → LoadModels → re-compose must produce bitwise-identical Results
// for every trunk cell type, not just matching ml-layer weights. This is
// the invariant the serve registry's on-disk store leans on — a cache hit
// replays a run exactly as if the models had just been trained. An
// artifact of the GRU, a trunk class earlier builds had, is refused on
// load with an error naming it, so the registry drops and retrains it.
func TestModelsSaveLoadRecompose(t *testing.T) {
	base := fastBase()
	tcfg := fastTrain()
	ing, eg, _, err := GenerateTrainingData(base, 120*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}

	blobs := map[string][]byte{}
	for _, cell := range []string{"lstm", "mlp"} {
		t.Run(cell, func(t *testing.T) {
			cfg := tcfg
			cfg.Model.CellType = cell
			models, _, _, err := TrainModels(ing, eg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := models.Save()
			if err != nil {
				t.Fatal(err)
			}
			blobs[cell] = blob
			loaded, err := LoadModels(blob)
			if err != nil {
				t.Fatal(err)
			}

			run := func(m *MimicModels) interface{} {
				ccfg := base
				ccfg.Topo = base.Topo.WithClusters(4)
				comp, err := Compose(ccfg, m)
				if err != nil {
					t.Fatal(err)
				}
				comp.Run(80 * sim.Millisecond)
				return comp.Results()
			}
			orig := run(models)
			again := run(loaded)
			if !reflect.DeepEqual(orig, again) {
				t.Fatalf("%s: recompose with loaded models diverged from original", cell)
			}
		})
	}
	t.Run("gru", func(t *testing.T) {
		gru := bytes.ReplaceAll(blobs["lstm"], []byte(`"type":"lstm"`), []byte(`"type":"gru"`))
		if bytes.Equal(gru, blobs["lstm"]) {
			t.Fatal("no saved LSTM cell to rewrite")
		}
		if _, err := LoadModels(gru); err == nil || !strings.Contains(err.Error(), `"gru"`) {
			t.Fatalf("LoadModels(GRU artifact) = %v, want an error naming the cell type", err)
		}
	})
}

// TestComposedRunContextCancel exercises the cancellation hook threaded
// through the run loop: the run stops promptly, the metrics collected so
// far survive, and Results flags the snapshot as partial instead of the
// work being abandoned silently. The "sharded" case sets ShardedRun = 1,
// as the benchmark's sharded leg does: the engine ignores it, so its
// uncancelled run must equal the sequential one, Events included.
func TestComposedRunContextCancel(t *testing.T) {
	base := fastBase()
	tcfg := fastTrain()
	ing, eg, _, err := GenerateTrainingData(base, 100*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	models, _, _, err := TrainModels(ing, eg, tcfg)
	if err != nil {
		t.Fatal(err)
	}

	const horizon = 120 * sim.Millisecond
	var seqFP string
	for _, mode := range []struct {
		name    string
		sharded int
	}{{"sequential", -1}, {"sharded", 1}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			cfg := base
			cfg.Topo = base.Topo.WithClusters(4)
			cfg.ShardedRun = mode.sharded

			full, err := Compose(cfg, models)
			if err != nil {
				t.Fatal(err)
			}
			if cancelled := full.RunContext(context.Background(), horizon); cancelled {
				t.Fatal("uncancelled run reported cancellation")
			}
			fullRes := full.Results()
			if fullRes.Cancelled {
				t.Fatal("uncancelled run's Results flagged Cancelled")
			}
			if fp := resultsFingerprint(fullRes); seqFP == "" {
				seqFP = fp
			} else if fp != seqFP {
				t.Fatalf("ShardedRun = %d changed the run: fingerprint %.16s, sequential %.16s", mode.sharded, fp, seqFP)
			}

			comp, err := Compose(cfg, models)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var lastNow sim.Time
			comp.Progress = func(now sim.Time, events uint64) {
				lastNow = now
				if now >= horizon/4 {
					cancel()
				}
			}
			if cancelled := comp.RunContext(ctx, horizon); !cancelled {
				t.Fatal("RunContext did not report cancellation")
			}
			res := comp.Results()
			if !res.Cancelled {
				t.Fatal("partial Results not flagged Cancelled")
			}
			if lastNow <= 0 || lastNow >= horizon {
				t.Fatalf("progress clock %v outside (0, %v)", lastNow, horizon)
			}
			if res.Events == 0 {
				t.Fatal("partial Results lost all progress")
			}
			if res.Events >= fullRes.Events {
				t.Fatalf("cancelled run processed %d events, full run %d — cancellation did not stop early",
					res.Events, fullRes.Events)
			}
		})
	}
}

// TestRunContextMatchesRun pins the run loop the daemon takes: RunContext
// with a live, never-cancelled context and a Progress hook ticks every
// few thousand events, yet must reproduce Run's Results exactly, Events
// included — for a full-fidelity simulation and the engine.
func TestRunContextMatchesRun(t *testing.T) {
	models := trainedForScheduler(t)
	const until = 150 * sim.Millisecond
	type runner interface {
		Run(sim.Time)
		RunContext(context.Context, sim.Time) bool
		Results() cluster.Results
	}
	check := func(name string, build func() (runner, *func(sim.Time, uint64))) {
		plain, _ := build()
		plain.Run(until)
		want := resultsFingerprint(plain.Results())

		ticked, progress := build()
		ticks := 0
		*progress = func(sim.Time, uint64) { ticks++ }
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if ticked.RunContext(ctx, until) {
			t.Fatalf("%s: uncancelled run reported cancellation", name)
		}
		if ticks == 0 {
			t.Fatalf("%s: Progress never ran; the ticked loop was not exercised", name)
		}
		if got := resultsFingerprint(ticked.Results()); got != want {
			t.Errorf("%s: RunContext fingerprint %.16s != Run %.16s", name, got, want)
		}
	}

	check("cluster.New", func() (runner, *func(sim.Time, uint64)) {
		inst, err := cluster.New(fastBase())
		if err != nil {
			t.Fatal(err)
		}
		return inst, &inst.Progress
	})
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)
	check("engine", func() (runner, *func(sim.Time, uint64)) {
		comp, err := Compose(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		return comp, &comp.Progress
	})
}

// TestEstimateReportsTheRun pins the one estimate step: Estimate's
// Report carries exactly what composing and running the Engine by hand
// yields (Results, Events included, flow and model counters), its
// progress hook reaches the run loop, and a cancelled context gives a
// partial Report rather than an error.
func TestEstimateReportsTheRun(t *testing.T) {
	models := trainedForScheduler(t)
	const until = 150 * sim.Millisecond
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)

	comp, err := Compose(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	comp.Run(until)
	want := Report{
		Results:        comp.Results(),
		FlowsStarted:   comp.FlowsStarted(),
		FlowsCompleted: comp.FlowsCompleted(),
		InferenceSteps: comp.InferenceSteps(),
		FeederEvents:   comp.FeederEvents(),
		MimicDrops:     [2]uint64{comp.MimicDrops(Ingress), comp.MimicDrops(Egress)},
	}

	ticks := 0
	rep, err := Estimate(context.Background(), cfg, models, until, func(sim.Time, uint64) { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 || rep.Wall <= 0 {
		t.Errorf("progress ticks %d, wall %v: the run loop was not observed", ticks, rep.Wall)
	}
	if got, w := resultsFingerprint(rep.Results), resultsFingerprint(want.Results); got != w {
		t.Errorf("Estimate fingerprint %.16s != Engine run %.16s", got, w)
	}
	got := *rep
	got.Results, got.Wall, want.Results = cluster.Results{}, 0, cluster.Results{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Estimate counters %+v, Engine run %+v", got, want)
	}
	if want.InferenceSteps == 0 || want.FeederEvents == 0 || want.FlowsCompleted == 0 {
		t.Errorf("degenerate run: %+v", want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := Estimate(ctx, cfg, models, until, nil)
	if err != nil || !part.Results.Cancelled {
		t.Errorf("cancelled Estimate: err %v, cancelled %v", err, part != nil && part.Results.Cancelled)
	}
	if _, err := Estimate(context.Background(), cfg, nil, until, nil); err == nil {
		t.Error("Estimate without models succeeded")
	}
}

// TestModelKey pins the content-address semantics the registry depends
// on: determinism, and sensitivity to exactly the knobs that change what
// a training run produces.
func TestModelKey(t *testing.T) {
	base := fastBase()
	tcfg := fastTrain()

	k1, err := ModelKey(base, 100*sim.Millisecond, tcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ModelKey(base, 100*sim.Millisecond, tcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("identical configs hashed to different keys")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}

	seeded := base
	seeded.Workload.Seed = base.Workload.Seed + 1
	k3, err := ModelKey(seeded, 100*sim.Millisecond, tcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("differing seeds produced the same key")
	}

	celled := tcfg
	celled.Model.CellType = "mlp"
	k4, err := ModelKey(base, 100*sim.Millisecond, celled, "")
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatal("differing cell types produced the same key")
	}

	// The target composition size must NOT change the key — that is the
	// amortization: one trained blob serves every N.
	big := base
	big.Topo = base.Topo.WithClusters(128)
	k5, err := ModelKey(big, 100*sim.Millisecond, tcfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if k5 != k1 {
		t.Fatal("cluster count leaked into the model key")
	}
}
