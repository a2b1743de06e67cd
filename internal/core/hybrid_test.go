package core

import (
	"math"
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

func TestUpdateModelsFineTunes(t *testing.T) {
	art := trainedForHybrid(t)

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
	// Old models still usable and unchanged in their predictions.
	info := PacketInfo{LocalServer: 1, SizeBytes: 1500, ArrivalTime: sim.Millisecond}
	a := NewMimic(art.Models, 1, 7).ProcessIngress(info)
	b := NewMimic(art.Models, 1, 7).ProcessIngress(info)
	if a != b {
		t.Error("original models changed by update")
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
