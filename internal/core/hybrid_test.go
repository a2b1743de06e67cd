package core

import (
	"math"
	"reflect"
	"testing"

	"mimicnet/internal/sim"
)

func trainedForHybrid(t *testing.T) *Artifacts {
	t.Helper()
	pcfg := DefaultPipelineConfig(fastBase())
	pcfg.SmallScaleDuration = 150 * sim.Millisecond
	pcfg.Train = fastTrain()
	art, err := RunPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestHybridIngressRuns(t *testing.T) {
	art := trainedForHybrid(t)
	h, err := NewHybrid(fastBase(), art.Models, Ingress)
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
	art := trainedForHybrid(t)
	h, err := NewHybrid(fastBase(), art.Models, Egress)
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
	art := trainedForHybrid(t)
	cfg := fastBase()
	cfg.Protocol = nil
	if _, err := NewHybrid(cfg, art.Models, Ingress); err == nil {
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
	art := trainedForHybrid(t)
	ingW1, egW1, err := RoleError(fastBase(), art.Models, 300*sim.Millisecond)
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
	art := trainedForHybrid(t)
	before := outcomeStream(art.Models)

	// Generate fresh data at a different seed (e.g. a workload shift).
	base := fastBase()
	base.Workload.Seed = 77
	tcfg := fastTrain()
	ing, eg, _, err := GenerateTrainingData(base, 150*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	updated, err := UpdateModels(art.Models, ing, eg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if updated == art.Models {
		t.Error("UpdateModels must not mutate in place")
	}
	// The old models are still usable and predict exactly what they did
	// before the update; the updated ones do not.
	if after := outcomeStream(art.Models); !reflect.DeepEqual(after, before) {
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

func TestUpdateModelsValidation(t *testing.T) {
	if _, err := UpdateModels(nil, nil, nil, 1, 0); err == nil {
		t.Error("nil models accepted")
	}
	art := trainedForHybrid(t)
	empty := &Dataset{Spec: art.Models.Spec}
	if _, err := UpdateModels(art.Models, empty, empty, 1, 0); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := &Dataset{Spec: FeatureSpec{Racks: 99}}
	if _, err := UpdateModels(art.Models, bad, bad, 1, 0); err == nil {
		t.Error("feature width change accepted")
	}
}
