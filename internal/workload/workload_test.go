package workload

import (
	"math"
	"testing"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
)

func testTopo(clusters int) *topo.Topology {
	return topo.New(topo.Config{
		Clusters:        clusters,
		RacksPerCluster: 2,
		HostsPerRack:    4,
		AggPerCluster:   2,
		CoresPerAgg:     2,
	})
}

func testConfig() Config {
	cfg := DefaultConfig(50_000)
	cfg.Duration = 500 * sim.Millisecond
	return cfg
}

func TestGenerateBasics(t *testing.T) {
	tp := testTopo(2)
	flows, err := Generate(tp, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	for i, f := range flows {
		if f.Src == f.Dst {
			t.Errorf("flow %d is a self-flow", i)
		}
		if f.Src < 0 || f.Src >= tp.Hosts() || f.Dst < 0 || f.Dst >= tp.Hosts() {
			t.Errorf("flow %d has out-of-range endpoints", i)
		}
		if f.Bytes <= 0 {
			t.Errorf("flow %d has %d bytes", i, f.Bytes)
		}
		if f.Start < 0 || f.Start >= testConfig().Duration {
			t.Errorf("flow %d starts at %v", i, f.Start)
		}
		if i > 0 && flows[i].Start < flows[i-1].Start {
			t.Error("flows not sorted by start time")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	tp := testTopo(2)
	a, _ := Generate(tp, testConfig())
	b, _ := Generate(tp, testConfig())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg := testConfig()
	cfg.Seed = 99
	c, _ := Generate(tp, cfg)
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

// The core scale-independence property (paper §4.2): adding clusters must
// not change existing hosts' flow arrival times or sizes.
func TestScaleIndependence(t *testing.T) {
	small, _ := Generate(testTopo(2), testConfig())
	large, _ := Generate(testTopo(8), testConfig())

	type key struct {
		id    uint64
		start sim.Time
		bytes int64
	}
	smallSet := make(map[key]bool)
	hostsInSmall := testTopo(2).Hosts()
	for _, f := range small {
		smallSet[key{f.ID, f.Start, f.Bytes}] = true
	}
	matched := 0
	for _, f := range large {
		if f.Src < hostsInSmall {
			if smallSet[key{f.ID, f.Start, f.Bytes}] {
				matched++
			}
		}
	}
	// Every small-topology flow should reappear with identical timing and
	// size at large scale (destinations may differ: more choices).
	if matched != len(small) {
		t.Errorf("only %d/%d flows preserved under scaling", matched, len(small))
	}
}

func TestMeanFlowSizeApproximatesTarget(t *testing.T) {
	tp := testTopo(4)
	cfg := testConfig()
	cfg.Duration = 2 * sim.Second
	flows, _ := Generate(tp, cfg)
	st := Summarize(tp, flows)
	if st.Flows < 100 {
		t.Fatalf("too few flows (%d) for a mean check", st.Flows)
	}
	// Heavy-tailed with clamping: allow a wide band.
	if st.MeanBytes < cfg.MeanFlowBytes*0.4 || st.MeanBytes > cfg.MeanFlowBytes*2.5 {
		t.Errorf("mean flow bytes = %v, want within [0.4, 2.5]x of %v", st.MeanBytes, cfg.MeanFlowBytes)
	}
}

func TestOfferedLoadApproximatesTarget(t *testing.T) {
	tp := testTopo(2)
	cfg := testConfig()
	cfg.Duration = 2 * sim.Second
	flows, _ := Generate(tp, cfg)
	st := Summarize(tp, flows)
	perHostBps := float64(st.TotalBytes) * 8 / cfg.Duration.Seconds() / float64(tp.Hosts())
	target := cfg.Load * cfg.HostLinkBps
	if perHostBps < target*0.3 || perHostBps > target*3 {
		t.Errorf("offered per-host load = %.3g bps, want ~%.3g", perHostBps, target)
	}
}

func TestLocalitySplit(t *testing.T) {
	tp := testTopo(4)
	cfg := testConfig()
	cfg.Duration = 2 * sim.Second
	cfg.PIntraRack = 0.5
	cfg.PIntraCluster = 0.3
	flows, _ := Generate(tp, cfg)
	st := Summarize(tp, flows)
	total := float64(st.Flows)
	if got := float64(st.IntraRack) / total; math.Abs(got-0.5) > 0.08 {
		t.Errorf("intra-rack fraction = %v, want ~0.5", got)
	}
	if got := float64(st.IntraCluster) / total; math.Abs(got-0.3) > 0.08 {
		t.Errorf("intra-cluster fraction = %v, want ~0.3", got)
	}
	if got := float64(st.InterCluster) / total; math.Abs(got-0.2) > 0.08 {
		t.Errorf("inter-cluster fraction = %v, want ~0.2", got)
	}
}

func TestSingleClusterFallback(t *testing.T) {
	tp := testTopo(1)
	cfg := testConfig()
	cfg.PIntraRack = 0
	cfg.PIntraCluster = 0 // all flows want inter-cluster, but there is none
	flows, err := Generate(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self flow in single-cluster fallback")
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := testConfig()
	bad := []func(*Config){
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = 2 },
		func(c *Config) { c.Load = math.NaN() },
		func(c *Config) { c.Load = math.Inf(1) },
		func(c *Config) { c.HostLinkBps = 0 },
		func(c *Config) { c.MeanFlowBytes = 0; c.FlowSizes = nil },
		func(c *Config) { c.MeanFlowBytes = math.NaN() },
		func(c *Config) { c.MeanFlowBytes = math.Inf(1) },
		func(c *Config) { c.PIntraRack = 0.8; c.PIntraCluster = 0.5 },
		func(c *Config) { c.PIntraRack = -0.1 },
		func(c *Config) { c.Duration = 0 },
	}
	for i, mut := range bad {
		cfg := good
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
		if _, err := Generate(testTopo(2), cfg); err == nil {
			t.Errorf("Generate accepted bad config %d", i)
		}
	}
}

func TestCustomSizeDistribution(t *testing.T) {
	cfg := testConfig()
	cfg.FlowSizes = stats.Constant{Value: 5000}
	flows, _ := Generate(testTopo(2), cfg)
	for _, f := range flows {
		if f.Bytes != 5000 {
			t.Fatalf("flow bytes = %d, want constant 5000", f.Bytes)
		}
	}
}

func TestClampBounds(t *testing.T) {
	cfg := testConfig()
	cfg.MinFlowBytes = 1000
	cfg.MaxFlowBytes = 2000
	flows, _ := Generate(testTopo(2), cfg)
	for _, f := range flows {
		if f.Bytes < 1000 || f.Bytes > 2000 {
			t.Fatalf("flow bytes %d outside clamp", f.Bytes)
		}
	}
}

func TestFlowIDRoundTrip(t *testing.T) {
	id := FlowID(123, 456)
	if src := int(id >> 40); src != 123 {
		t.Errorf("FlowID(123, 456) carries source %d", src)
	}
	if FlowID(1, 1) == FlowID(1, 2) || FlowID(1, 1) == FlowID(2, 1) {
		t.Error("FlowID collisions")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(testTopo(2), nil)
	if st.Flows != 0 || st.MeanBytes != 0 {
		t.Error("empty summarize should be zero")
	}
}

// Stats summarizes a generated schedule for the size, load and locality
// checks.
type Stats struct {
	Flows        int
	TotalBytes   int64
	MeanBytes    float64
	InterCluster int
	IntraCluster int
	IntraRack    int
}

// Summarize computes schedule statistics.
func Summarize(t *topo.Topology, flows []Flow) Stats {
	var st Stats
	st.Flows = len(flows)
	for _, f := range flows {
		st.TotalBytes += f.Bytes
		switch {
		case t.ClusterOf(f.Src) != t.ClusterOf(f.Dst):
			st.InterCluster++
		case t.RackOf(f.Src) != t.RackOf(f.Dst):
			st.IntraCluster++
		default:
			st.IntraRack++
		}
	}
	if st.Flows > 0 {
		st.MeanBytes = float64(st.TotalBytes) / float64(st.Flows)
	}
	return st
}
