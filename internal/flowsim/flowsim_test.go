package flowsim

import (
	"math"
	"testing"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
	"mimicnet/internal/workload"
)

func testConfig() Config {
	cfg := Config{
		Topo:     topo.DefaultConfig().WithClusters(2),
		Workload: workload.DefaultConfig(20_000),
		LinkBps:  100e6,
	}
	cfg.Workload.Duration = 100 * sim.Millisecond
	return cfg
}

// constantSize makes every flow of cfg the given size: equal clamp
// bounds, with the mean (which sets the arrival rate) at that size.
func constantSize(cfg *Config, bytes int64) {
	cfg.Workload.MeanFlowBytes = float64(bytes)
	cfg.Workload.MinFlowBytes, cfg.Workload.MaxFlowBytes = bytes, bytes
}

func TestRunCompletesFlows(t *testing.T) {
	res, err := Run(testConfig(), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || len(res.FCTs) == 0 {
		t.Fatal("no flows completed")
	}
	if len(res.Throughputs) == 0 {
		t.Fatal("no throughput samples")
	}
	for _, fct := range res.FCTs {
		if fct <= 0 || math.IsNaN(fct) {
			t.Fatalf("bad FCT %v", fct)
		}
	}
	if res.Events == 0 {
		t.Error("no rate recomputations")
	}
}

func TestSingleFlowRateIsLineRate(t *testing.T) {
	// One 125 KB flow on an idle network at 100 Mbps should take ~10 ms
	// (fluid model: no slow start, no packet overhead).
	cfg := testConfig()
	constantSize(&cfg, 125_000)
	cfg.Workload.Load = 0.01 // ~1 flow/sec/host: 10 ms flows rarely overlap
	cfg.Workload.Duration = 5 * sim.Second
	res, err := Run(cfg, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FCTs) == 0 {
		t.Fatal("no flows")
	}
	isolated := 0
	for _, fct := range res.FCTs {
		if math.Abs(fct-0.01) < 1e-6 {
			isolated++
		}
	}
	// The vast majority of flows run in isolation at this load and must
	// finish in exactly bytes/linerate.
	if frac := float64(isolated) / float64(len(res.FCTs)); frac < 0.8 {
		t.Fatalf("only %.0f%% of flows at line rate; fluid model broken", frac*100)
	}
}

func TestFairSharing(t *testing.T) {
	// Two simultaneous equal flows into the same destination host share
	// the bottleneck: each should finish in ~2x the isolated time.
	cfg := testConfig()
	constantSize(&cfg, 125_000)
	cfg.Workload.Load = 0.01
	cfg.Workload.Duration = 5 * sim.Second
	res1, _ := Run(cfg, 10*sim.Second)
	if len(res1.FCTs) == 0 {
		t.Fatal("no isolated flows")
	}
	iso := stats.Quantile(res1.FCTs, 0.5)

	// Synthesize contention by doubling load so flows overlap heavily.
	cfg.Workload.Load = 0.9
	cfg.Workload.Duration = 200 * sim.Millisecond
	res2, _ := Run(cfg, 10*sim.Second)
	if len(res2.FCTs) < 5 {
		t.Skip("not enough overlapping flows")
	}
	mean := stats.Mean(res2.FCTs)
	if mean <= iso {
		t.Errorf("contended mean FCT %v should exceed isolated %v", mean, iso)
	}
}

// TestMaxMinHandSolved checks maxMin's rates against hand-solved
// max-min allocations at link capacity C = 12.5e6 B/s (100 Mb/s):
//
//   - three links, L1 carrying flows a, b, c; L2 carrying c, d; L3
//     carrying d, e. L1 saturates first at C/3 each for a, b, c, which
//     leaves L2 and L3 C/3 apiece; L3 then splits its C/3 between d
//     and e, so d = e = C/3 + C/6 = C/2.
//   - one link shared by 37 flows: each gets C/37. C − 37·(C/37) leaves
//     1.86e-9 B/s of rounding residue, above maxMin's 1e-9 freeze
//     threshold, so the link freezes one round late, after a second
//     filling round of about 5e-11 B/s per flow.
//
// Rates must match to within 1e-12 relative.
func TestMaxMinHandSolved(t *testing.T) {
	const C = 12.5e6
	L1, L2, L3 := [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}
	flows := map[uint64]*activeFlow{
		'a': {links: [][2]int{L1}},
		'b': {links: [][2]int{L1}},
		'c': {links: [][2]int{L1, L2}},
		'd': {links: [][2]int{L2, L3}},
		'e': {links: [][2]int{L3}},
	}
	want := map[uint64]float64{'a': C / 3, 'b': C / 3, 'c': C / 3, 'd': C / 2, 'e': C / 2}
	maxMin(flows, C)
	for id, f := range flows {
		if math.Abs(f.rate-want[id]) > 1e-12*want[id] {
			t.Errorf("three links: flow %c rate %v, want %v", rune(id), f.rate, want[id])
		}
	}

	const n = 37
	capacity := float64(C) // maxMin's float64 arithmetic, not exact constants
	if r := capacity - float64(capacity/n*n); r <= 1e-9 {
		t.Fatalf("C − %d·(C/%d) = %v: the instance no longer leaves residue above the freeze threshold", n, n, r)
	}
	shared := map[uint64]*activeFlow{}
	for id := uint64(0); id < n; id++ {
		shared[id] = &activeFlow{links: [][2]int{{0, 1}}}
	}
	maxMin(shared, C)
	for id, f := range shared {
		if math.Abs(f.rate-C/n) > 1e-12*C/n {
			t.Errorf("one link, %d flows: flow %d rate %v, want %v", n, id, f.rate, C/n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Run(testConfig(), sim.Second)
	b, _ := Run(testConfig(), sim.Second)
	if a.Completed != b.Completed || len(a.FCTs) != len(b.FCTs) {
		t.Fatal("flowsim runs diverged")
	}
	for i := range a.FCTs {
		if a.FCTs[i] != b.FCTs[i] {
			t.Fatal("FCT mismatch between identical runs")
		}
	}
}

func TestInvalidConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Topo.Clusters = 0
	if _, err := Run(cfg, sim.Second); err == nil {
		t.Error("invalid topo accepted")
	}
	cfg = testConfig()
	cfg.Workload.Load = 0
	if _, err := Run(cfg, sim.Second); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestHorizonCutsOffFlows(t *testing.T) {
	cfg := testConfig()
	constantSize(&cfg, 100e6) // huge flows
	res, err := Run(cfg, 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Errorf("%d huge flows completed before horizon", res.Completed)
	}
}

func TestFCTByIDConsistent(t *testing.T) {
	res, _ := Run(testConfig(), 2*sim.Second)
	if len(res.FCTByID) != len(res.FCTs) {
		t.Errorf("FCTByID has %d entries, FCTs %d", len(res.FCTByID), len(res.FCTs))
	}
}
