package workload

import (
	"testing"

	"mimicnet/internal/sim"
)

func coflowConfig() CoflowConfig {
	return CoflowConfig{
		Seed: 3, Jobs: 3, Stages: 4, Width: 2,
		FlowBytes: 10_000, ArrivalGap: 10 * sim.Millisecond,
		StageDelay: sim.Millisecond,
	}
}

func TestGenerateCoflows(t *testing.T) {
	tp := testTopo(2)
	flows, err := GenerateCoflows(tp, coflowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 3*4*2 {
		t.Fatalf("flows = %d, want 24", len(flows))
	}
	byID := make(map[uint64]Flow)
	roots := 0
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
		if f.Bytes != 10_000 {
			t.Fatalf("flow bytes = %d", f.Bytes)
		}
		if _, dup := byID[f.ID]; dup {
			t.Fatalf("duplicate flow ID %d", f.ID)
		}
		byID[f.ID] = f
		if f.After == 0 {
			roots++
		}
	}
	if roots != 3*2 {
		t.Errorf("roots = %d, want 6 (first stage of each job)", roots)
	}
	// Every dependency must reference an existing flow.
	for _, f := range flows {
		if f.After != 0 {
			if _, ok := byID[f.After]; !ok {
				t.Fatalf("flow %d depends on unknown parent %d", f.ID, f.After)
			}
		}
	}
	if got := CriticalPathStages(flows); got != 4 {
		t.Errorf("critical path = %d, want 4 stages", got)
	}
}

func TestCoflowValidation(t *testing.T) {
	bad := []CoflowConfig{
		{},
		{Jobs: 1, Stages: 1, Width: 0, FlowBytes: 1},
		{Jobs: 1, Stages: 1, Width: 1, FlowBytes: 0},
	}
	for i, cfg := range bad {
		if _, err := GenerateCoflows(testTopo(2), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCoflowIDsDoNotCollideWithBackground(t *testing.T) {
	tp := testTopo(2)
	bg, err := Generate(tp, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cf, err := GenerateCoflows(tp, coflowConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, len(bg))
	for _, f := range bg {
		seen[f.ID] = true
	}
	for _, f := range cf {
		if seen[f.ID] {
			t.Fatalf("coflow ID %d collides with background", f.ID)
		}
	}
}

func TestCriticalPathNoDeps(t *testing.T) {
	tp := testTopo(2)
	bg, _ := Generate(tp, testConfig())
	if got := CriticalPathStages(bg); got != 1 {
		t.Errorf("dependency-free critical path = %d, want 1", got)
	}
	if CriticalPathStages(nil) != 0 {
		t.Error("empty critical path should be 0")
	}
}
