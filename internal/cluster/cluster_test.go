package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"mimicnet/internal/metrics"
	"mimicnet/internal/sim"
	"mimicnet/internal/transport"
	"mimicnet/internal/workload"
)

// smallConfig returns a fast 2-cluster configuration for tests.
func smallConfig(protocol string) Config {
	cfg := DefaultConfig(2)
	p, err := transport.ByName(protocol)
	if err != nil {
		panic(err)
	}
	cfg.Protocol = p
	cfg.Workload = workload.DefaultConfig(20_000)
	cfg.Workload.Duration = 100 * sim.Millisecond
	cfg.Workload.Load = 0.5
	return cfg
}

func TestFullSimulationBaseline(t *testing.T) {
	inst, err := New(smallConfig("newreno"))
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Flows()) == 0 {
		t.Fatal("no flows scheduled")
	}
	inst.Run(400 * sim.Millisecond)
	res := inst.Results()
	if len(res.FCTs) == 0 {
		t.Fatal("no FCTs collected")
	}
	if len(res.RTTs) == 0 {
		t.Fatal("no RTTs collected")
	}
	if len(res.Throughputs) == 0 {
		t.Fatal("no throughput samples")
	}
	if res.Events == 0 || res.Packets == 0 {
		t.Error("no work recorded")
	}
	if inst.FlowsCompleted() == 0 {
		t.Error("no observable flows completed")
	}
	if inst.FlowsCompleted() > inst.FlowsStarted() {
		t.Error("completed more flows than started")
	}
	for _, fct := range res.FCTs {
		if fct <= 0 {
			t.Fatalf("non-positive FCT %v", fct)
		}
	}
	for _, rtt := range res.RTTs {
		// Minimum possible RTT: 2 links each way at 500us = 2ms.
		if rtt < 0.002-1e-9 {
			t.Fatalf("RTT %v below propagation floor", rtt)
		}
	}
}

func TestAllProtocolsRun(t *testing.T) {
	for _, name := range transport.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			inst, err := New(smallConfig(name))
			if err != nil {
				t.Fatal(err)
			}
			inst.Run(400 * sim.Millisecond)
			res := inst.Results()
			if len(res.FCTs) == 0 {
				t.Errorf("%s: no flows completed", name)
			}
		})
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Results {
		inst, err := New(smallConfig("newreno"))
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(300 * sim.Millisecond)
		return inst.Results()
	}
	a, b := run(), run()
	if a.Events != b.Events || a.Packets != b.Packets || a.Drops != b.Drops {
		t.Errorf("runs diverged: %+v vs %+v", a, b)
	}
	if len(a.FCTs) != len(b.FCTs) {
		t.Fatalf("FCT counts differ: %d vs %d", len(a.FCTs), len(b.FCTs))
	}
	for i := range a.FCTs {
		if a.FCTs[i] != b.FCTs[i] {
			t.Fatalf("FCT %d differs", i)
		}
	}
}

func TestObservableClusterFiltering(t *testing.T) {
	cfg := smallConfig("newreno")
	cfg.Observable = 1
	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(300 * sim.Millisecond)
	// Every collected flow must touch cluster 1.
	for _, f := range inst.Collector.Flows() {
		if inst.Topo.ClusterOf(f.SrcHost) != 1 && inst.Topo.ClusterOf(f.DstHost) != 1 {
			t.Fatalf("flow %s does not touch observable cluster", f.ID)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallConfig("newreno")
	cfg.Protocol = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil protocol accepted")
	}
	cfg = smallConfig("newreno")
	cfg.Observable = 5
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range observable accepted")
	}
	cfg = smallConfig("newreno")
	cfg.Topo.Clusters = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid topology accepted")
	}
	cfg = smallConfig("newreno")
	cfg.Workload.Load = -1
	if _, err := New(cfg); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestDCTCPUsesECNQueues(t *testing.T) {
	cfg := smallConfig("dctcp")
	cfg.ECNThresholdK = 10
	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(400 * sim.Millisecond)
	res := inst.Results()
	if len(res.FCTs) == 0 {
		t.Fatal("dctcp run completed no flows")
	}
	// DCTCP under load should complete flows with fewer drops than the
	// same run would with loss-based backoff; at minimum it must not
	// deadlock and RTTs should stay bounded.
	for _, rtt := range res.RTTs {
		if rtt > 1.0 {
			t.Fatalf("pathological RTT %v under DCTCP", rtt)
		}
	}
}

func TestBDPBytes(t *testing.T) {
	cfg := DefaultConfig(2)
	bdp := cfg.bdpBytes()
	// 100 Mbps * 6 ms RTT = 75000 bytes.
	if bdp < 70_000 || bdp > 80_000 {
		t.Errorf("BDP = %d, want ~75000", bdp)
	}
}

func TestHigherLoadMoreDrops(t *testing.T) {
	at := func(load float64) uint64 {
		cfg := smallConfig("newreno")
		cfg.Workload.Load = load
		inst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(300 * sim.Millisecond)
		return inst.Results().Drops
	}
	low, high := at(0.1), at(0.9)
	if high < low {
		t.Errorf("drops at 90%% load (%d) < drops at 10%% (%d)", high, low)
	}
}

func TestCoflowDependencyScheduling(t *testing.T) {
	cfg := smallConfig("newreno")
	// Replace background traffic with a tiny co-flow job: stage 2 must
	// start only after stage 1 completes.
	cfg.Workload.Load = 0.01 // near-idle background
	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := workload.GenerateCoflows(inst.Topo, workload.CoflowConfig{
		Seed: 5, Jobs: 2, Stages: 3, Width: 2,
		FlowBytes: 20_000, ArrivalGap: 5 * sim.Millisecond,
		StageDelay: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with the co-flows merged in.
	inst2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst2.AddFlows(cf); err != nil {
		t.Fatal(err)
	}
	bad := []workload.Flow{{ID: 1, Src: -1, Dst: 0, Bytes: 10}}
	if err := inst2.AddFlows(bad); err == nil {
		t.Error("out-of-range flow accepted")
	}
	inst2.Run(2 * sim.Second)

	// The collector only tracks flows touching the observable cluster;
	// every such co-flow flow should complete, and each dependent flow
	// with an observed parent must start after that parent finished.
	observed := func(f workload.Flow) bool {
		return inst2.Topo.ClusterOf(f.Src) == cfg.Observable ||
			inst2.Topo.ClusterOf(f.Dst) == cfg.Observable
	}
	completed := inst2.Collector.FCTByID()
	checked := 0
	for _, f := range cf {
		if !observed(f) {
			continue
		}
		if _, ok := completed[flowKey(f.ID)]; !ok {
			t.Fatalf("observed coflow flow %d never completed", f.ID)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no coflow flows touched the observable cluster")
	}
	flowRecs := make(map[string]*metrics.FlowRecord)
	for _, r := range inst2.Collector.Flows() {
		flowRecs[r.ID] = r
	}
	ordered := 0
	for _, f := range cf {
		if f.After == 0 {
			continue
		}
		child := flowRecs[flowKey(f.ID)]
		parent := flowRecs[flowKey(f.After)]
		if child == nil || parent == nil {
			continue // one endpoint pair unobserved
		}
		if child.Start < parent.End {
			t.Fatalf("dependent flow %d started at %v before parent finished at %v",
				f.ID, child.Start, parent.End)
		}
		ordered++
	}
	if ordered == 0 {
		t.Fatal("no observed parent-child pair exercised the ordering check")
	}
}

func TestQueueDepthSampler(t *testing.T) {
	cfg := smallConfig("newreno")
	cfg.Workload.Load = 0.9
	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler := inst.SampleQueues(sim.Millisecond)
	inst.Run(200 * sim.Millisecond)
	if len(sampler.Samples) == 0 {
		t.Fatal("no queue samples")
	}
	if sampler.MaxDepth() == 0 {
		t.Error("queues never built at 90% load")
	}
	var buf bytes.Buffer
	if err := sampler.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sampler.Samples)+1 {
		t.Errorf("CSV lines = %d, want %d", len(lines), len(sampler.Samples)+1)
	}
	if !strings.HasPrefix(lines[0], "at_seconds,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestPacketLogger also pins the tap contract (netsim.Packet): the logger
// formats each packet while the tap runs and keeps nothing, so a run with
// released packets poisoned must log byte for byte what a run that
// recycles them logs.
func TestPacketLogger(t *testing.T) {
	logOf := func(t *testing.T) string {
		inst, err := New(smallConfig("newreno"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		logger := inst.LogPackets(&buf)
		inst.Run(100 * sim.Millisecond)
		if logger.Count() == 0 {
			t.Fatal("no packets logged")
		}
		if logger.Err() != nil {
			t.Fatal(logger.Err())
		}
		return buf.String()
	}
	recycled := logOf(t)
	first := strings.SplitN(recycled, "\n", 2)[0]
	if !strings.Contains(first, "flow=") || !strings.Contains(first, "seq=") {
		t.Errorf("log line format: %q", first)
	}
	poisonReleasedPackets(t)
	if poisoned := logOf(t); poisoned != recycled {
		t.Error("packet log differs once released packets are poisoned: something read a packet after its release")
	}
}

// The packet path is closure-free and pooled (DESIGN.md decision 17):
// what a run still allocates is per flow — senders, receivers, map
// entries, metric keys — and per pool refill, never per packet hop. With
// this workload's short flows that comes to about 0.05 per event (0.008
// on the benchmark's N=16 run); the closure-per-hop path took 1.47.
func TestFullFidelityAllocsPerEvent(t *testing.T) {
	cfg := smallConfig("dctcp")
	cfg.Topo = cfg.Topo.WithClusters(4)
	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst.Run(100 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	events := inst.Results().Events
	if events < 100_000 {
		t.Fatalf("only %d events; the run measures nothing", events)
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d events, %.4f allocations per event", events, perEvent)
	if perEvent >= 0.1 {
		t.Errorf("%.3f allocations per event, want < 0.1", perEvent)
	}
}

func TestRunGroupParallelMode(t *testing.T) {
	base := smallConfig("newreno")
	cfgs := ParallelConfigs(base, 3)
	if len(cfgs) != 3 {
		t.Fatal("wrong group size")
	}
	seeds := map[int64]bool{}
	for _, c := range cfgs {
		seeds[c.Workload.Seed] = true
	}
	if len(seeds) != 3 {
		t.Error("parallel configs must vary seeds")
	}
	g, err := RunGroup(cfgs, 200*sim.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != 3 {
		t.Fatalf("results = %d", len(g.Results))
	}
	for i, r := range g.Results {
		if len(r.FCTs) == 0 {
			t.Errorf("instance %d completed no flows", i)
		}
	}
	if len(g.AllFCTs()) != len(g.Results[0].FCTs)+len(g.Results[1].FCTs)+len(g.Results[2].FCTs) {
		t.Error("AllFCTs lost samples")
	}
	if g.TotalEvents() == 0 || g.Wall <= 0 {
		t.Error("group accounting empty")
	}
	// Different seeds ⇒ different results (with overwhelming probability).
	if g.Results[0].Events == g.Results[1].Events && g.Results[1].Events == g.Results[2].Events {
		t.Error("seed variation had no effect")
	}
}

func TestRunGroupPartitionedMode(t *testing.T) {
	base := smallConfig("newreno")
	cfgs, chunk := PartitionedConfigs(base, 4, 200*sim.Millisecond)
	if chunk != 50*sim.Millisecond {
		t.Errorf("chunk = %v", chunk)
	}
	for _, c := range cfgs {
		if c.Workload.Duration > chunk {
			t.Error("workload horizon not clamped to chunk")
		}
	}
	g, err := RunGroup(cfgs, chunk, 0) // parallelism 0 = NumCPU
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != 4 {
		t.Fatal("wrong result count")
	}
}

func TestRunGroupValidation(t *testing.T) {
	if _, err := RunGroup(nil, sim.Second, 1); err == nil {
		t.Error("empty group accepted")
	}
	bad := smallConfig("newreno")
	bad.Protocol = nil
	if _, err := RunGroup([]Config{smallConfig("newreno"), bad}, sim.Second, 1); err == nil {
		t.Error("invalid member accepted")
	}
}

func TestRunGroupDeterministicPerMember(t *testing.T) {
	base := smallConfig("newreno")
	run := func() GroupResult {
		g, err := RunGroup(ParallelConfigs(base, 2), 150*sim.Millisecond, 2)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := run(), run()
	for i := range a.Results {
		if a.Results[i].Events != b.Results[i].Events {
			t.Fatalf("member %d nondeterministic across group runs", i)
		}
	}
}
