// Package cluster assembles full-fidelity packet-level simulations: a
// FatTree fabric, per-host transport stacks, a generated workload, and
// the instrumentation MimicNet needs—metrics collection at the observable
// cluster's hosts and packet taps at cluster boundaries (paper §5.1).
package cluster

import (
	"context"
	"fmt"
	"runtime"
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

	// BatchWindow overrides the batched engine's collection window
	// (0 = derive from the models' latency lower bound, < 0 = flush at
	// the same timestamp). Windows above the models' latency lower
	// bound delay predictions past delivery deadlines; continuations
	// are then clamped to the flush time, trading exactness for batch
	// size. Sharded compositions additionally cap the window at the
	// cross-LP causality bound (egress latency floor minus lookahead).
	BatchWindow sim.Time

	// ShardedRun > 0 partitions composed/hybrid simulations into one
	// logical process per cluster (core switches ride with the observable
	// cluster) and runs the windows in parallel; zero or negative runs
	// them on one event queue. Sequential is the default because on the
	// hosts measured so far sharding is the slower path (0.79x at N=32 on
	// 2 vCPUs, DESIGN.md decisions 7 and 15); it stays an opt-in, and a
	// correctness oracle, until a host with at least four real cores
	// shows otherwise. Sharded and sequential runs produce
	// bitwise-identical Results; only wall-clock time differs. The field
	// stays an int because callers assign -1 and 1 to it. Full-fidelity
	// simulations (cluster.New) are tightly coupled and always run
	// sequentially — that contrast is MimicNet's Figure 2 motivation.
	ShardedRun int

	// NumWorkers bounds the worker goroutines executing shards (0 =
	// GOMAXPROCS). Has no effect on results.
	NumWorkers int
}

// Sharded reports whether the configuration asks for a sharded run.
func (c Config) Sharded() bool { return c.ShardedRun > 0 }

// ShardWorkers resolves the worker count for a sharded run.
func (c Config) ShardWorkers() int {
	if c.NumWorkers > 0 {
		return c.NumWorkers
	}
	return runtime.GOMAXPROCS(0)
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

// QueueFactory picks the switch queue discipline required by the
// protocol: ECN marking for DCTCP, strict priority for Homa, DropTail
// otherwise.
func (c Config) QueueFactory() netsim.QueueFactory {
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

// BDPBytes estimates the bandwidth-delay product of the longest (6-hop
// inter-cluster) path for transport sizing.
func (c Config) BDPBytes() int {
	rttSec := 12 * c.Link.Delay.Seconds() // 6 links each way
	bdp := int(c.Link.RateBps / 8 * rttSec)
	if bdp < netsim.MSS {
		bdp = netsim.MSS
	}
	return bdp
}

// Simulation is a runnable full-fidelity instance.
type Simulation struct {
	Cfg       Config
	Sim       *sim.Simulator
	Topo      *topo.Topology
	Fabric    *netsim.Fabric
	Env       *transport.Env
	Collector *metrics.Collector

	hosts []*transport.Host
	flows []workload.Flow

	// waiting maps a parent flow ID to the dependent flows gated on its
	// completion (co-flow support).
	waiting map[uint64][]workload.Flow

	// FlowsStarted / FlowsCompleted count observable-cluster flows.
	FlowsStarted, FlowsCompleted int

	// Progress, if set, is invoked periodically from RunContext's run
	// loop with the simulated clock and events processed so far.
	Progress func(now sim.Time, events uint64)

	cancelled bool
}

// New builds a simulation. The workload is generated immediately so the
// caller can inspect it before running.
func New(cfg Config) (*Simulation, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("cluster: config needs a protocol")
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Observable < 0 || cfg.Observable >= cfg.Topo.Clusters {
		return nil, fmt.Errorf("cluster: observable cluster %d out of range", cfg.Observable)
	}
	t := topo.New(cfg.Topo)
	cfg.Workload.HostLinkBps = cfg.Link.RateBps
	flows, err := workload.Generate(t, cfg.Workload)
	if err != nil {
		return nil, err
	}

	s := sim.New()
	link := cfg.Link
	link.SwitchQueue = cfg.QueueFactory()
	fabric := netsim.NewFabric(s, t, link)

	inst := &Simulation{
		Cfg: cfg, Sim: s, Topo: t, Fabric: fabric,
		Collector: metrics.NewCollector(),
		flows:     flows,
		waiting:   make(map[uint64][]workload.Flow),
	}
	inst.Env = &transport.Env{
		Sim:      s,
		Packets:  fabric.Packets(0),
		MSS:      netsim.MSS,
		BDPBytes: cfg.BDPBytes(),
		Inject: func(pkt *netsim.Packet) {
			pkt.Route(t)
			fabric.Inject(pkt)
		},
		OnRTT: func(f *transport.Flow, sec float64) {
			if t.ClusterOf(f.Src) == cfg.Observable {
				inst.Collector.RTTSample(sec)
			}
		},
		OnComplete: func(f *transport.Flow) {
			if inst.observes(f.Src, f.Dst) {
				inst.Collector.FlowCompleted(flowKey(f.ID), s.Now())
				inst.FlowsCompleted++
			}
			inst.releaseDependents(f.ID)
		},
	}

	inst.hosts = make([]*transport.Host, t.Hosts())
	for h := 0; h < t.Hosts(); h++ {
		h := h
		host := transport.NewHost(h, inst.Env, func(f *transport.Flow) *transport.Receiver {
			r := transport.NewReceiver(inst.Env, f)
			if transport.IsHoma(cfg.Protocol) {
				bdp := inst.Env.BDPBytes
				r.EnableGranting(func(remaining int64) int {
					return transport.HomaPriority(remaining, bdp)
				})
			}
			if t.ClusterOf(h) == cfg.Observable {
				r.OnDeliver = func(n int64) {
					inst.Collector.BytesReceived(h, n, s.Now())
				}
			}
			return r
		})
		inst.hosts[h] = host
		fabric.RegisterHost(h, host.Receive)
	}

	// Schedule root flows; dependents wait for their parent's completion.
	for _, f := range flows {
		f := f
		if f.After != 0 {
			inst.waiting[f.After] = append(inst.waiting[f.After], f)
			continue
		}
		s.At(f.Start, func() { inst.startFlow(f) })
	}
	return inst, nil
}

// releaseDependents starts flows gated on the completed parent, each
// after its configured stage delay.
func (inst *Simulation) releaseDependents(parent uint64) {
	deps := inst.waiting[parent]
	if len(deps) == 0 {
		return
	}
	delete(inst.waiting, parent)
	for _, f := range deps {
		f := f
		inst.Sim.After(f.Start, func() { inst.startFlow(f) })
	}
}

func flowKey(id uint64) string { return strconv.FormatUint(id, 10) }

func (inst *Simulation) observes(src, dst int) bool {
	return inst.Topo.ClusterOf(src) == inst.Cfg.Observable ||
		inst.Topo.ClusterOf(dst) == inst.Cfg.Observable
}

func (inst *Simulation) startFlow(f workload.Flow) {
	tf := &transport.Flow{
		ID: f.ID, Src: f.Src, Dst: f.Dst, Bytes: f.Bytes,
		Hash: topo.FlowHash(f.Src, f.Dst, f.ID),
	}
	sender := inst.Cfg.Protocol.NewSender(inst.Env, tf)
	inst.hosts[f.Src].AddSender(f.ID, sender)
	if inst.observes(f.Src, f.Dst) {
		inst.Collector.FlowStarted(flowKey(f.ID), f.Src, f.Dst, f.Bytes, inst.Sim.Now())
		inst.FlowsStarted++
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
		f := f
		inst.flows = append(inst.flows, f)
		if f.After != 0 {
			inst.waiting[f.After] = append(inst.waiting[f.After], f)
			continue
		}
		inst.Sim.At(f.Start, func() { inst.startFlow(f) })
	}
	return nil
}

// Flows returns the generated schedule.
func (inst *Simulation) Flows() []workload.Flow { return inst.flows }

// Run advances the simulation to the given simulated time.
func (inst *Simulation) Run(until sim.Time) {
	pre := inst.Sim.Processed()
	inst.Sim.RunUntil(until)
	sim.CountKernelEvents(inst.Sim.Processed() - pre)
}

// CancelCheckEvery is how many kernel events elapse between cooperative
// cancellation checks in RunContext. Small enough that a killed job stops
// within milliseconds of wall-clock, large enough that the per-event cost
// is unmeasurable.
const CancelCheckEvery = 8192

// RunContext advances the simulation to the given simulated time,
// checking ctx every CancelCheckEvery events and reporting through the
// Progress hook. On cancellation it stops promptly, leaves the metrics
// collected so far intact, and returns true; Results then carries
// Cancelled so partial distributions are never mistaken for a full run.
func (inst *Simulation) RunContext(ctx context.Context, until sim.Time) (cancelled bool) {
	if ctx == nil || (ctx.Done() == nil && inst.Progress == nil) {
		inst.Run(until)
		return false
	}
	inst.Sim.SetTicker(CancelCheckEvery, func(now sim.Time, events uint64) bool {
		if inst.Progress != nil {
			inst.Progress(now, events)
		}
		if ctx.Err() != nil {
			inst.cancelled = true
			return true
		}
		return false
	})
	defer inst.Sim.SetTicker(0, nil)
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

// Results snapshots the collected metrics.
func (inst *Simulation) Results() Results {
	return Results{
		FCTs:        inst.Collector.FCTs(),
		Throughputs: inst.Collector.Throughputs(),
		RTTs:        inst.Collector.RTTs(),
		FCTByID:     inst.Collector.FCTByID(),
		Events:      inst.Sim.Processed(),
		Packets:     inst.Fabric.Injected(),
		Drops:       inst.Fabric.Drops(),
		Cancelled:   inst.cancelled,
	}
}
