// Package cluster is the one packet-level runtime: a FatTree fabric
// (sequential, or sharded one logical process per cluster), per-host
// transport stacks, a generated workload, the run loop, and the
// instrumentation MimicNet needs—metrics collection at the measured
// clusters' hosts and packet taps at cluster boundaries (paper §5.1).
// New builds a full-fidelity simulation with one observable cluster;
// NewLayered builds the same runtime for a role layer (core.Engine),
// which says per cluster what is measured and what a model stands in
// for, and supplies the packet-injection hook its models sit behind.
package cluster

import (
	"context"
	"fmt"
	"strconv"

	"mimicnet/internal/metrics"
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
	"mimicnet/internal/topo"
	"mimicnet/internal/transport"
	"mimicnet/internal/workload"
)

// Config describes a full simulation.
type Config struct {
	Topo     topo.Config
	Link     netsim.LinkConfig
	Protocol transport.Protocol
	Workload workload.Config

	// Observable selects the cluster whose hosts are instrumented for
	// FCT/throughput/RTT (paper: exactly one observable cluster).
	Observable int

	// ECNThresholdK sets the switch marking threshold when the protocol
	// uses ECN (DCTCP's K, Figure 13). Zero selects the default of 20.
	ECNThresholdK int

	// QueueCapacity is the per-port queue capacity in packets (0 = 100).
	QueueCapacity int

	// CustomQueue, when set, overrides the protocol-derived switch queue
	// discipline (e.g. to run RED ablations).
	CustomQueue netsim.QueueFactory

	// ShardedRun > 0 runs a simulation whose NewLayered caller passes a
	// positive lookahead as one logical process per cluster, windows in
	// parallel; zero or negative runs it on one event queue. The one such
	// caller is Figure 2's pdes columns (experiments.fig2Row).
	// cluster.New and core.Engine pass no lookahead, so they always run
	// on one event queue and ignore the field. The sharded schedule is
	// exact across worker counts, but it may order same-nanosecond ties
	// differently from the sequential one (DESIGN.md decision 7). The
	// field stays an int because callers assign -1 and 1 to it.
	ShardedRun int

	// NumWorkers bounds the worker goroutines executing shards (0 =
	// GOMAXPROCS) when ShardedRun shards. Has no effect on results.
	NumWorkers int
}

// DefaultConfig returns the paper's base configuration at a given cluster
// count: TCP New Reno, DropTail, ECMP, 100 Mbps / 500 µs links.
func DefaultConfig(clusters int) Config {
	wl := workload.DefaultConfig(150_000)
	return Config{
		Topo:     topo.DefaultConfig().WithClusters(clusters),
		Link:     netsim.DefaultLinkConfig(),
		Protocol: transport.NewRenoProtocol(),
		Workload: wl,
	}
}

// queueFactory picks the switch queue discipline required by the
// protocol: ECN marking for DCTCP, strict priority for Homa, DropTail
// otherwise.
func (c Config) queueFactory() netsim.QueueFactory {
	if c.CustomQueue != nil {
		return c.CustomQueue
	}
	capacity := c.QueueCapacity
	if capacity <= 0 {
		capacity = 100
	}
	switch {
	case c.Protocol.UsesECN():
		k := c.ECNThresholdK
		if k <= 0 {
			k = 20
		}
		return netsim.ECNFactory(capacity, k)
	case c.Protocol.QueueBands() > 1:
		return netsim.PriorityFactory(c.Protocol.QueueBands(), capacity)
	default:
		return netsim.DropTailFactory(capacity)
	}
}

// bdpBytes estimates the bandwidth-delay product of the longest (6-hop
// inter-cluster) path for transport sizing.
func (c Config) bdpBytes() int {
	rttSec := 12 * c.Link.Delay.Seconds() // 6 links each way
	bdp := int(c.Link.RateBps / 8 * rttSec)
	if bdp < netsim.MSS {
		bdp = netsim.MSS
	}
	return bdp
}

// Simulation is a runnable packet-level instance: the one runtime every
// simulation runs on. cluster.New builds it at full fidelity with one
// measured (observable) cluster; a role layer (core.Engine) builds it
// with NewLayered and adds its models on top.
type Simulation struct {
	Cfg    Config
	Sim    *sim.Simulator // the first LP's simulator (the only one when sequential)
	Topo   *topo.Topology
	Fabric *netsim.Fabric

	// Collector is the first LP's metrics collector (the only one when
	// sequential); Results merges every LP's.
	Collector *metrics.Collector

	lps      []*lp
	par      *sim.Parallel // nil when sequential
	hosts    []*transport.Host
	flows    []workload.Flow
	measured []bool // per cluster

	// waiting maps a parent flow ID to the dependent flows gated on its
	// completion (co-flow support).
	waiting map[uint64][]workload.Flow

	// onFlowStart is startFlow as a typed event on a *workload.Flow,
	// bound once.
	onFlowStart sim.Handler

	// Progress, if set, is invoked periodically from the run loop (per
	// window barrier when sharded, every cancelCheckEvery events when
	// sequential) with the simulated clock and events processed so far.
	Progress func(now sim.Time, events uint64)

	cancelled bool
}

// lp is the per-logical-process slice of a simulation: its simulator,
// transport environment, metrics collector, and flow counters. Every
// field is written only by the owning LP's goroutine, so sharded runs
// count and collect without locks; the padding keeps neighboring LPs'
// hot counters off each other's cache lines.
type lp struct {
	sim    *sim.Simulator
	starts *sim.Lane // root flow starts, scheduled in Start order
	env    *transport.Env
	coll   *metrics.Collector

	flowsStarted   int
	flowsCompleted int
	_              [8]uint64
}

// Layer is what a role layer on top of the runtime decides, as
// per-cluster data rather than callbacks.
type Layer struct {
	// Measured marks the clusters whose hosts feed the RTT and throughput
	// collectors; a flow is measured (FCT, flow counters) iff it touches
	// a measured cluster.
	Measured []bool
	// ModelDriven marks the clusters a model stands in for: flows with
	// both ends in such clusters are not simulated.
	ModelDriven []bool
	// Lookahead > 0 is the minimum latency of any cross-cluster channel;
	// with cfg.ShardedRun > 0 it permits a sharded fabric with one LP
	// per cluster (core switches ride with LP 0).
	Lookahead sim.Time
	// Inject, if set, replaces the fabric as the destination of transport
	// packets (routing included). It runs on the source host's LP.
	Inject func(pkt *netsim.Packet)
}

// New builds a full-fidelity simulation measuring cfg.Observable. It
// always runs sequentially. The workload is generated immediately so the
// caller can inspect it before running.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Observable < 0 || cfg.Observable >= cfg.Topo.Clusters {
		return nil, fmt.Errorf("cluster: observable cluster %d out of range", cfg.Observable)
	}
	measured := make([]bool, cfg.Topo.Clusters)
	measured[cfg.Observable] = true
	return NewLayered(cfg, Layer{Measured: measured})
}

func (cfg Config) validate() error {
	if cfg.Protocol == nil {
		return fmt.Errorf("cluster: config needs a protocol")
	}
	return cfg.Topo.Validate()
}

// NewLayered builds the runtime for a role layer: topology, workload,
// fabric (sequential, or sharded per layer.Lookahead), per-LP transport
// environments and collectors, hosts, and the flow schedule.
func NewLayered(cfg Config, layer Layer) (*Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Topo.Clusters
	if len(layer.Measured) != n || (layer.ModelDriven != nil && len(layer.ModelDriven) != n) {
		return nil, fmt.Errorf("cluster: layer describes %d/%d clusters, topology has %d",
			len(layer.Measured), len(layer.ModelDriven), n)
	}
	t := topo.New(cfg.Topo)
	cfg.Workload.HostLinkBps = cfg.Link.RateBps
	var simulated func(src, dst int) bool // nil: every flow
	if md := layer.ModelDriven; md != nil {
		simulated = func(src, dst int) bool { return !md[t.ClusterOf(src)] || !md[t.ClusterOf(dst)] }
	}
	flows, err := workload.Generate(t, cfg.Workload, simulated)
	if err != nil {
		return nil, err
	}

	inst := &Simulation{
		Cfg: cfg, Topo: t,
		flows:    flows,
		measured: layer.Measured,
		waiting:  make(map[uint64][]workload.Flow),
	}
	link := cfg.Link
	link.SwitchQueue = cfg.queueFactory()
	if cfg.ShardedRun > 0 && layer.Lookahead > 0 {
		inst.par = sim.NewParallel(n, layer.Lookahead)
		inst.par.NumWorkers = cfg.NumWorkers
		shardOf := make([]int, t.Nodes())
		for node := range shardOf {
			if cl := t.ClusterOf(node); cl > 0 {
				shardOf[node] = cl
			}
		}
		inst.Fabric = netsim.NewShardedFabric(inst.par.LPs, shardOf, t, link)
		for _, l := range inst.par.LPs {
			inst.lps = append(inst.lps, &lp{sim: l.Sim})
		}
	} else {
		inst.lps = []*lp{{sim: sim.New()}}
		inst.Fabric = netsim.NewFabric(inst.lps[0].sim, t, link)
	}
	inst.Sim = inst.lps[0].sim
	for _, l := range inst.lps {
		l.starts = l.sim.NewLane()
	}
	inst.onFlowStart = func(p any, _ int64) { inst.startFlow(p.(*workload.Flow)) }

	inject := layer.Inject
	if inject == nil {
		inject = func(pkt *netsim.Packet) {
			pkt.Route(t)
			inst.Fabric.Inject(pkt)
		}
	}
	for i, l := range inst.lps {
		l := l
		l.coll = metrics.NewCollector()
		l.env = &transport.Env{
			Sim:      l.sim,
			Packets:  inst.Fabric.Packets(t.HostID(i, 0, 0)), // LP i runs cluster i
			MSS:      netsim.MSS,
			BDPBytes: cfg.bdpBytes(),
			Inject:   inject,
			OnRTT: func(f *transport.Flow, sec float64) {
				if inst.measured[t.ClusterOf(f.Src)] {
					l.coll.RTTSample(sec)
				}
			},
			OnComplete: func(f *transport.Flow) {
				if inst.measures(f.Src, f.Dst) {
					l.coll.FlowCompleted(flowKey(f.ID), l.sim.Now())
					l.flowsCompleted++
				}
				inst.releaseDependents(l, f.ID)
			},
		}
	}
	inst.Collector = inst.lps[0].coll

	inst.hosts = make([]*transport.Host, t.Hosts())
	for h := 0; h < t.Hosts(); h++ {
		h := h
		l := inst.lpOf(h)
		host := transport.NewHost(h, l.env, func(f *transport.Flow) *transport.Receiver {
			r := transport.NewReceiver(l.env, f)
			if transport.IsHoma(cfg.Protocol) {
				bdp := l.env.BDPBytes
				r.EnableGranting(func(remaining int64) int {
					return transport.HomaPriority(remaining, bdp)
				})
			}
			if inst.measured[t.ClusterOf(h)] {
				r.OnDeliver = func(n int64) {
					l.coll.BytesReceived(h, n, l.sim.Now())
				}
			}
			return r
		})
		inst.hosts[h] = host
		inst.Fabric.RegisterHost(h, host.Receive)
	}
	inst.schedule(flows)
	return inst, nil
}

// lpOf returns the logical process running a host.
func (inst *Simulation) lpOf(host int) *lp { return inst.lps[inst.lpIndex(host)] }

// lpIndex returns the index of the logical process running a host:
// cluster i's hosts run on LP i when sharded, everything on the one LP
// otherwise.
func (inst *Simulation) lpIndex(host int) int {
	if inst.par == nil {
		return 0
	}
	return inst.Topo.ClusterOf(host)
}

// schedule starts root flows at their Start time on their source host's
// LP, through its flow-start lane (workload.Generate sorts flows by
// Start); dependents wait for their parent's completion. Each lane is
// grown once to hold its LP's roots.
func (inst *Simulation) schedule(flows []workload.Flow) {
	roots := make([]int, len(inst.lps))
	for i := range flows {
		if flows[i].After == 0 {
			roots[inst.lpIndex(flows[i].Src)]++
		}
	}
	for i, l := range inst.lps {
		l.starts.Grow(roots[i])
	}
	for i := range flows {
		f := &flows[i]
		if f.After != 0 {
			inst.waiting[f.After] = append(inst.waiting[f.After], *f)
			continue
		}
		inst.lpOf(f.Src).starts.Schedule(f.Start, inst.onFlowStart, f, 0)
	}
}

// releaseDependents starts flows gated on the completed parent, each
// after its configured stage delay. Co-flows come only from AddFlows, so
// they are released on the sequential runtime's one LP.
func (inst *Simulation) releaseDependents(l *lp, parent uint64) {
	deps := inst.waiting[parent]
	if len(deps) == 0 {
		return
	}
	delete(inst.waiting, parent)
	for i := range deps {
		l.sim.Schedule(l.sim.Now()+deps[i].Start, inst.onFlowStart, &deps[i], 0)
	}
}

func flowKey(id uint64) string { return strconv.FormatUint(id, 10) }

// measures reports whether a flow touches a measured cluster.
func (inst *Simulation) measures(src, dst int) bool {
	return inst.measured[inst.Topo.ClusterOf(src)] || inst.measured[inst.Topo.ClusterOf(dst)]
}

func (inst *Simulation) startFlow(f *workload.Flow) {
	l := inst.lpOf(f.Src)
	tf := &transport.Flow{
		ID: f.ID, Src: f.Src, Dst: f.Dst, Bytes: f.Bytes,
		Hash: topo.FlowHash(f.Src, f.Dst, f.ID),
	}
	sender := inst.Cfg.Protocol.NewSender(l.env, tf)
	inst.hosts[f.Src].AddSender(f.ID, sender)
	if inst.measures(f.Src, f.Dst) {
		l.coll.FlowStarted(flowKey(f.ID), f.Src, f.Dst, f.Bytes, l.sim.Now())
		l.flowsStarted++
	}
	sender.Start()
}

// AddFlows schedules additional flows (e.g. co-flow jobs from
// workload.GenerateCoflows) on top of the generated background traffic.
// Root flows are scheduled at their Start time; dependent flows are gated
// on their parent's completion. Must be called before Run.
func (inst *Simulation) AddFlows(flows []workload.Flow) error {
	for _, f := range flows {
		if f.Src < 0 || f.Src >= inst.Topo.Hosts() || f.Dst < 0 || f.Dst >= inst.Topo.Hosts() {
			return fmt.Errorf("cluster: flow %d has out-of-range endpoints", f.ID)
		}
	}
	inst.flows = append(inst.flows, flows...)
	inst.schedule(inst.flows[len(inst.flows)-len(flows):])
	return nil
}

// Flows returns the simulated flow schedule.
func (inst *Simulation) Flows() []workload.Flow { return inst.flows }

// Host returns a host's transport stack.
func (inst *Simulation) Host(h int) *transport.Host { return inst.hosts[h] }

// Parallel exposes the PDES coordinator (nil when sequential), for the
// role layer's cross-LP sends and for barrier and causality-clamp counts.
func (inst *Simulation) Parallel() *sim.Parallel { return inst.par }

// FlowsStarted returns the number of measured flows started.
func (inst *Simulation) FlowsStarted() int {
	total := 0
	for _, l := range inst.lps {
		total += l.flowsStarted
	}
	return total
}

// FlowsCompleted returns the number of measured flows completed.
func (inst *Simulation) FlowsCompleted() int {
	total := 0
	for _, l := range inst.lps {
		total += l.flowsCompleted
	}
	return total
}

// Run advances the simulation to the given simulated time: RunContext
// without a context.
func (inst *Simulation) Run(until sim.Time) { inst.RunContext(context.Background(), until) }

// cancelCheckEvery is how many kernel events elapse between cooperative
// cancellation checks in a sequential run. Small enough that a killed job
// stops within milliseconds of wall-clock, large enough that the
// per-event cost is unmeasurable.
const cancelCheckEvery = 8192

// RunContext advances the simulation to the given simulated time. When
// ctx can be cancelled or Progress is set, a ticker checks ctx and
// reports progress — at every window barrier when sharded (windows are a
// lookahead of simulated time), every cancelCheckEvery events when
// sequential — without perturbing the run. On cancellation it stops
// promptly, leaves the metrics collected so far intact, and returns true;
// Results then carries Cancelled so partial distributions are never
// mistaken for a full run.
func (inst *Simulation) RunContext(ctx context.Context, until sim.Time) (cancelled bool) {
	var tick func(now sim.Time, events uint64) bool
	if ctx != nil && (ctx.Done() != nil || inst.Progress != nil) {
		tick = func(now sim.Time, events uint64) bool {
			if inst.Progress != nil {
				inst.Progress(now, events)
			}
			if ctx.Err() != nil {
				inst.cancelled = true
				return true
			}
			return false
		}
	}
	if inst.par != nil {
		inst.par.Ticker = tick
		defer func() { inst.par.Ticker = nil }()
		inst.par.Run(until) // the PDES coordinator publishes its own event deltas
		return inst.cancelled
	}
	if tick != nil {
		inst.Sim.SetTicker(cancelCheckEvery, tick)
		defer inst.Sim.SetTicker(0, nil)
	}
	pre := inst.Sim.Processed()
	inst.Sim.RunUntil(until)
	sim.CountKernelEvents(inst.Sim.Processed() - pre)
	return inst.cancelled
}

// Results bundles the three end-to-end metric distributions.
type Results struct {
	FCTs        []float64
	Throughputs []float64
	RTTs        []float64
	FCTByID     map[string]float64
	Events      uint64 // simulator events processed
	Packets     uint64 // packets injected into the fabric
	Drops       uint64

	// Cancelled marks a partial snapshot: the run was interrupted via
	// RunContext before reaching its horizon.
	Cancelled bool
}

// Results snapshots the collected metrics. LPs' collectors merge
// losslessly: every flow's records live entirely on its source host's LP
// and all distribution outputs are sorted.
func (inst *Simulation) Results() Results {
	coll := inst.Collector
	var events uint64
	colls := make([]*metrics.Collector, len(inst.lps))
	for i, l := range inst.lps {
		colls[i] = l.coll
		events += l.sim.Processed()
	}
	if len(colls) > 1 {
		coll = metrics.Merged(colls...)
	}
	return Results{
		FCTs:        coll.FCTs(),
		Throughputs: coll.Throughputs(),
		RTTs:        coll.RTTs(),
		FCTByID:     coll.FCTByID(),
		Events:      events,
		Packets:     inst.Fabric.Injected(),
		Drops:       inst.Fabric.Drops(),
		Cancelled:   inst.cancelled,
	}
}
