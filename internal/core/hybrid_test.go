package core

import (
	"math"
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
	h, err := newHybrid(fastBase(), models, Ingress)
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
	h, err := newHybrid(fastBase(), models, Egress)
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
	if _, err := newHybrid(cfg, models, Ingress); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := newHybrid(fastBase(), nil, Ingress); err == nil {
		t.Error("nil models accepted")
	}
	if _, err := newHybrid(fastBase(), &MimicModels{}, Ingress); err == nil {
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
		h, err := newHybrid(fastBase(), models, dir)
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
