package workload

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"mimicnet/internal/sim"
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
	flows, err := Generate(tp, testConfig(), nil)
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
	a, _ := Generate(tp, testConfig(), nil)
	b, _ := Generate(tp, testConfig(), nil)
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
	c, _ := Generate(tp, cfg, nil)
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
	small, _ := Generate(testTopo(2), testConfig(), nil)
	large, _ := Generate(testTopo(8), testConfig(), nil)

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
	flows, _ := Generate(tp, cfg, nil)
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
	flows, _ := Generate(tp, cfg, nil)
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
	flows, _ := Generate(tp, cfg, nil)
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
	flows, err := Generate(tp, cfg, nil)
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
		func(c *Config) { c.MeanFlowBytes = 0 },
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
		if _, err := Generate(testTopo(2), cfg, nil); err == nil {
			t.Errorf("Generate accepted bad config %d", i)
		}
	}
}

// A mean flow size whose interarrival gaps overflow int64 nanoseconds is
// refused by Validate; one just inside the bound still generates, and a
// far-tail gap ends its host's schedule instead of wrapping the clock.
func TestValidateRejectsUnschedulableMean(t *testing.T) {
	huge := DefaultConfig(1e30)
	if err := huge.Validate(); err == nil {
		t.Fatal("DefaultConfig(1e30) passed validation")
	}
	if _, err := Generate(testTopo(2), huge, nil); err == nil {
		t.Fatal("Generate accepted DefaultConfig(1e30)")
	}
	// The mean gap is 0.99 of int64 nanoseconds: 10 of these 16 hosts
	// draw a first gap past it.
	edge := DefaultConfig(8e16)
	edge.Duration = sim.Millisecond
	if err := edge.Validate(); err != nil {
		t.Fatalf("mean 8e16 B rejected: %v", err)
	}
	flows, err := Generate(testTopo(2), edge, nil)
	if err != nil || len(flows) != 0 {
		t.Fatalf("mean 8e16 B over 1 ms: %d flows, err %v; want none", len(flows), err)
	}
}

// Equal clamp bounds make every flow one size.
func TestCustomSizeDistribution(t *testing.T) {
	cfg := testConfig()
	cfg.MinFlowBytes, cfg.MaxFlowBytes = 5000, 5000
	flows, _ := Generate(testTopo(2), cfg, nil)
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
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
	flows, _ := Generate(testTopo(2), cfg, nil)
	for _, f := range flows {
		if f.Bytes < 1000 || f.Bytes > 2000 {
			t.Fatalf("flow bytes %d outside clamp", f.Bytes)
		}
	}
}

func TestFlowIDRoundTrip(t *testing.T) {
	id := flowID(123, 456)
	if src := int(id >> 40); src != 123 {
		t.Errorf("flowID(123, 456) carries source %d", src)
	}
	if flowID(1, 1) == flowID(1, 2) || flowID(1, 1) == flowID(2, 1) {
		t.Error("flowID collisions")
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

// crossesCluster0 keeps the flows a composition with one measured
// cluster (cluster 0) simulates: those with an end in it.
func crossesCluster0(tp *topo.Topology) func(src, dst int) bool {
	return func(src, dst int) bool { return tp.ClusterOf(src) == 0 || tp.ClusterOf(dst) == 0 }
}

// A keep predicate must return exactly the flows the full schedule
// holds that it keeps, in the same order: every flow is still drawn, so
// the kept ones do not move.
func TestGenerateKeepMatchesFilter(t *testing.T) {
	for _, n := range []int{2, 8, 32} {
		tp := testTopo(n)
		keep := crossesCluster0(tp)
		for _, seed := range []int64{1, 7, 1 << 33} {
			cfg := testConfig()
			cfg.Seed = seed
			cfg.Duration = 100 * sim.Millisecond
			all, err := Generate(tp, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.DeleteFunc(slices.Clone(all), func(f Flow) bool { return !keep(f.Src, f.Dst) })
			got, err := Generate(tp, cfg, keep)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || len(want) == len(all) {
				t.Fatalf("N=%d seed %d: predicate kept %d of %d flows, want a proper subset", n, seed, len(want), len(all))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("N=%d seed %d: Generate with keep returned %d flows, filtering the full schedule %d, or their order differs",
					n, seed, len(got), len(want))
			}
		}
	}
}

// Generating a schedule allocates what it returns: the hosts share one
// reseeded stream, and flows the predicate rejects are never stored. At
// N=32 with every flow rejected, what is left is that one stream and the
// hosts' labels; a stream per host alone would be 256 × 5.4 KB.
func TestGenerateAllocatesOnlyKeptFlows(t *testing.T) {
	tp := testTopo(32)
	none := func(src, dst int) bool { return false }
	Generate(tp, testConfig(), none) // warm up lazily built runtime state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flows, err := Generate(tp, testConfig(), none)
	runtime.ReadMemStats(&after)
	if err != nil || len(flows) != 0 {
		t.Fatalf("Generate rejecting every flow = %d flows, %v", len(flows), err)
	}
	const bound = 64 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("Generate at N=32 rejecting every flow allocated %d B, bound %d B", got, bound)
	}
}

// BenchmarkGenerate is one schedule at the cluster counts of a first
// estimate and of a large composition, unfiltered and as a composition
// with one measured cluster keeps it.
func BenchmarkGenerate(b *testing.B) {
	for _, n := range []int{8, 32} {
		tp := testTopo(n)
		for _, arm := range []struct {
			name string
			keep func(src, dst int) bool
		}{{"all", nil}, {"cluster0", crossesCluster0(tp)}} {
			b.Run(fmt.Sprintf("N=%d/%s", n, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Generate(tp, testConfig(), arm.keep); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
