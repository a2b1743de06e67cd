package core

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/sim"
)

func trainedForHybrid(t *testing.T) *MimicModels {
	return mustTrainFast(t, 150*sim.Millisecond)
}

func TestHybridIngressRuns(t *testing.T) {
	models := trainedForHybrid(t)
	h, err := NewHybrid(fastBase(), models, Ingress)
	if err != nil {
		t.Fatal(err)
	}
	h.Run(300 * sim.Millisecond)
	if h.ModelPackets() == 0 {
		t.Fatal("ingress hybrid served no packets through the model")
	}
	res := h.Results()
	if len(res.FCTs) == 0 {
		t.Fatal("no flows completed in ingress hybrid")
	}
	if h.FlowsCompleted() == 0 || h.FlowsCompleted() > h.FlowsStarted() {
		t.Errorf("flow accounting: %d/%d", h.FlowsCompleted(), h.FlowsStarted())
	}
}

func TestHybridEgressRuns(t *testing.T) {
	models := trainedForHybrid(t)
	h, err := NewHybrid(fastBase(), models, Egress)
	if err != nil {
		t.Fatal(err)
	}
	h.Run(300 * sim.Millisecond)
	if h.ModelPackets() == 0 {
		t.Fatal("egress hybrid served no packets through the model")
	}
	if len(h.Results().FCTs) == 0 {
		t.Fatal("no flows completed in egress hybrid")
	}
}

func TestHybridValidation(t *testing.T) {
	models := trainedForHybrid(t)
	cfg := fastBase()
	cfg.Protocol = nil
	if _, err := NewHybrid(cfg, models, Ingress); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := NewHybrid(fastBase(), nil, Ingress); err == nil {
		t.Error("nil models accepted")
	}
	if _, err := NewHybrid(fastBase(), &MimicModels{}, Ingress); err == nil {
		t.Error("incomplete models accepted")
	}
}

func TestRoleError(t *testing.T) {
	models := trainedForHybrid(t)
	ingW1, egW1, err := RoleError(fastBase(), models, 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ingW1) || math.IsNaN(egW1) {
		t.Fatalf("direction errors not computable: %v / %v", ingW1, egW1)
	}
	if ingW1 < 0 || egW1 < 0 {
		t.Errorf("negative W1: %v / %v", ingW1, egW1)
	}
	t.Logf("per-direction W1(FCT): ingress=%.4g egress=%.4g", ingW1, egW1)
}

// TestHybridMeasuresReferencePopulation pins the flow population RoleError
// compares: a hybrid measures exactly the flows its full-fidelity
// reference (cluster.New, observable cluster 0) measures — those touching
// cluster 0 — so the two FCT distributions describe the same flows.
func TestHybridMeasuresReferencePopulation(t *testing.T) {
	models := trainedForScheduler(t)
	const until = 250 * sim.Millisecond
	ref, err := cluster.New(fastBase())
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(until)
	measured := map[string]bool{}
	for _, f := range ref.Flows() {
		if ref.Topo.ClusterOf(f.Src) == 0 || ref.Topo.ClusterOf(f.Dst) == 0 {
			measured[strconv.FormatUint(f.ID, 10)] = true
		}
	}
	if ref.FlowsStarted() != len(measured) {
		t.Fatalf("reference started %d measured flows, schedule has %d", ref.FlowsStarted(), len(measured))
	}
	for _, dir := range []Direction{Ingress, Egress} {
		h, err := NewHybrid(fastBase(), models, dir)
		if err != nil {
			t.Fatal(err)
		}
		h.Run(until)
		if got := h.FlowsStarted(); got != ref.FlowsStarted() {
			t.Errorf("%s: hybrid started %d measured flows, reference %d", dir, got, ref.FlowsStarted())
		}
		fcts := h.Results().FCTByID
		if len(fcts) == 0 {
			t.Fatalf("%s: no measured flow completed", dir)
		}
		for id := range fcts {
			if !measured[id] {
				t.Errorf("%s: flow %s has an FCT but does not touch the observed cluster", dir, id)
				break
			}
		}
	}
}

// outcomeStream drives a fresh oracle Mimic over a fixed packet stream
// in both directions and returns its Outcomes.
func outcomeStream(models *MimicModels) []Outcome {
	m := newOracleMimic(models, 1, 7)
	var outs []Outcome
	for i := 0; i < 40; i++ {
		info := PacketInfo{LocalServer: i % 4, SizeBytes: 1500, ECT: true, ArrivalTime: sim.Time(i+1) * sim.Millisecond}
		outs = append(outs, m.process(Direction(i%2), info))
	}
	return outs
}

func TestUpdateModelsFineTunes(t *testing.T) {
	models := trainedForHybrid(t)
	before := outcomeStream(models)

	// Generate fresh data at a different seed (e.g. a workload shift).
	base := fastBase()
	base.Workload.Seed = 77
	tcfg := fastTrain()
	ing, eg, _, err := GenerateTrainingData(base, 150*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	updated, err := UpdateModels(models, ing, eg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if updated == models {
		t.Error("UpdateModels must not mutate in place")
	}
	// The old models are still usable and predict exactly what they did
	// before the update; the updated ones do not.
	if after := outcomeStream(models); !reflect.DeepEqual(after, before) {
		t.Error("original models changed by update")
	}
	if reflect.DeepEqual(outcomeStream(updated), before) {
		t.Error("updated models predict exactly what the originals did; the comparison proves nothing")
	}
	// Updated models compose fine.
	cfg := base
	cfg.Topo = base.Topo.WithClusters(4)
	comp, err := Compose(cfg, updated)
	if err != nil {
		t.Fatal(err)
	}
	comp.Run(150 * sim.Millisecond)
	if comp.FlowsCompleted() == 0 {
		t.Error("updated models completed no flows")
	}
}

// TestUpdateModelsKeepsEmpiricalGaps: a model whose feeders replay
// empirical gaps must still replay them after an update, from the bank
// refitted on the new trace, not fall back to the log-normal fit.
func TestUpdateModelsKeepsEmpiricalGaps(t *testing.T) {
	models := cloneModels(t, trainedForScheduler(t))
	models.Ingress.UseEmpiricalGaps = true
	models.Egress.UseEmpiricalGaps = true
	base := fastBase()
	base.Workload.Seed = 77
	ing, eg, _, err := GenerateTrainingData(base, 150*sim.Millisecond, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	updated, err := UpdateModels(models, ing, eg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dm *DirectionModel
		ds *Dataset
	}{{updated.Ingress, ing}, {updated.Egress, eg}} {
		if !c.dm.UseEmpiricalGaps {
			t.Errorf("%v: update dropped UseEmpiricalGaps", c.ds.Dir)
		}
		// FeederGapFrac replays GapSamples when the flag is set and the
		// bank is non-empty (TestFeederGapEmpiricalReplay).
		if want := gapSubsample(c.ds.Interarrivals, 2048); len(want) == 0 || !reflect.DeepEqual(c.dm.GapSamples, want) {
			t.Errorf("%v: gap bank has %d samples, want the %d refitted from the new trace",
				c.ds.Dir, len(c.dm.GapSamples), len(want))
		}
	}
}

func TestUpdateModelsValidation(t *testing.T) {
	if _, err := UpdateModels(nil, nil, nil, 1, 0); err == nil {
		t.Error("nil models accepted")
	}
	models := trainedForHybrid(t)
	empty := &Dataset{Spec: models.Spec}
	if _, err := UpdateModels(models, empty, empty, 1, 0); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := &Dataset{Spec: FeatureSpec{Racks: 99}}
	if _, err := UpdateModels(models, bad, bad, 1, 0); err == nil {
		t.Error("feature width change accepted")
	}
}
