package cluster

import (
	"runtime"
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

// TestShardedFullFidelityTieClass pins the one sharded run left, the
// one Figure 2's pdes columns time: NewLayered with every cluster
// measured, lookahead one link delay and ShardedRun = 1. Remote events
// enter at window barriers while the sequential heap interleaves them
// mid-window, so same-nanosecond ties may order differently from the
// sequential run (DESIGN.md decision 7). The sharded schedule itself
// must be exact across worker counts, Events included, with no
// causality clamp.
func TestShardedFullFidelityTieClass(t *testing.T) {
	const clusters, until = 4, 100 * sim.Millisecond
	cfg := DefaultConfig(clusters)
	cfg.Workload = workload.DefaultConfig(20_000)
	cfg.Workload.Duration = 150 * sim.Millisecond
	cfg.Workload.Load = 0.7
	cfg.ShardedRun = 1
	layer := Layer{Measured: make([]bool, clusters), Lookahead: cfg.Link.Delay}
	for i := range layer.Measured {
		layer.Measured[i] = true
	}
	var firstFP string
	for _, workers := range []int{1, 2, 4} {
		cfg.NumWorkers = workers
		inst, err := NewLayered(cfg, layer)
		if err != nil {
			t.Fatal(err)
		}
		par := inst.Parallel()
		if par == nil {
			t.Fatalf("workers=%d: forced sharding fell back to sequential", workers)
		}
		inst.Run(until)
		res := inst.Results()
		if len(res.FCTByID) == 0 {
			t.Fatalf("workers=%d: no flows completed; test exercises nothing", workers)
		}
		if n := par.CausalityClamps; n != 0 {
			t.Errorf("workers=%d: %d causality clamps", workers, n)
		}
		fp := resultsFingerprint(res)
		if firstFP == "" {
			firstFP = fp
		} else if fp != firstFP {
			t.Errorf("workers=%d: fingerprint diverged from workers=1", workers)
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
