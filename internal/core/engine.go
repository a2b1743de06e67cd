package core

import (
	"context"
	"fmt"
	"strconv"

	"mimicnet/internal/cluster"
	"mimicnet/internal/metrics"
	"mimicnet/internal/netsim"
	"mimicnet/internal/obs"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
	"mimicnet/internal/transport"
	"mimicnet/internal/workload"
)

// This file is the role-based composition engine (DESIGN.md decision
// 14). MimicNet's central mechanism — one observable cluster simulated
// in full plus trained Mimics standing in for the rest (§4, §6), and
// the hybrid ingress/egress configurations that attribute per-direction
// error (Appendix B) — used to live in two near-duplicate runtimes
// (Composed and Hybrid). The Engine expresses both, and compositions
// neither could (multiple ground-truth clusters, per-cluster model
// variants), as one fabric built from a vector of per-cluster roles.

// RoleKind classifies how one cluster of a composition is simulated.
type RoleKind uint8

const (
	// RoleObserved runs the cluster at full netsim fidelity and collects
	// FCT/throughput/RTT metrics at its hosts (the paper's observable
	// cluster).
	RoleObserved RoleKind = iota
	// RoleMimic replaces the cluster's internals with the trained
	// ingress+egress models: external packets are intercepted at the
	// boundary, internal traffic is approximated by feeders (§4, §6).
	RoleMimic
	// RoleHybridIngress keeps the cluster at full fidelity but serves
	// its *ingress* direction (external packets descending from the
	// core) from the ingress model (Appendix B, Figure 15a).
	RoleHybridIngress
	// RoleHybridEgress keeps the cluster at full fidelity but serves
	// its *egress* direction (packets leaving its hosts for other
	// clusters) from the egress model (Appendix B, Figure 15b).
	RoleHybridEgress
)

func (k RoleKind) String() string {
	switch k {
	case RoleObserved:
		return "observed"
	case RoleMimic:
		return "mimic"
	case RoleHybridIngress:
		return "hybrid-ingress"
	case RoleHybridEgress:
		return "hybrid-egress"
	}
	return fmt.Sprintf("role(%d)", int(k))
}

// usesModels reports whether the role consumes trained models.
func (k RoleKind) usesModels() bool { return k != RoleObserved }

// roleClass buckets kinds for the unified drop counter family's
// cluster_role label: fully model-driven clusters vs hybrid ones.
func (k RoleKind) roleClass() int {
	if k == RoleMimic {
		return roleClassMimic
	}
	return roleClassHybrid
}

// ClusterRole assigns one cluster its simulation role, optionally with
// its own trained artifact (nil Models = the engine-wide default).
// Per-cluster overrides let a composition mix model variants — e.g. a
// stale or fine-tuned model for one region — which the paper's
// homogeneous composition cannot express.
type ClusterRole struct {
	Kind   RoleKind
	Models *MimicModels
}

// ComposedRoles is the §7.1 role vector: cluster 0 observed, the other
// n-1 replaced by Mimics.
func ComposedRoles(n int) []ClusterRole {
	roles := make([]ClusterRole, n)
	for i := 1; i < n; i++ {
		roles[i].Kind = RoleMimic
	}
	return roles
}

// HybridRoles is the Appendix-B role vector: a 2-cluster full-fidelity
// network with one direction of cluster 1's external traffic served by
// the model under test.
func HybridRoles(dir Direction) []ClusterRole {
	kind := RoleHybridIngress
	if dir == Egress {
		kind = RoleHybridEgress
	}
	return []ClusterRole{{Kind: RoleObserved}, {Kind: kind}}
}

// Engine is an N-cluster MimicNet fabric built from a role vector: each
// cluster is observed (full netsim fidelity), a Mimic (model-driven), or
// a hybrid (full fidelity with one direction served by a model). Core
// switches always run at full fidelity.
//
// An engine runs either sequentially (one event queue) or sharded into
// one logical process per cluster (cfg.Sharded()), with core switches
// riding on LP 0. Model-driven clusters interact with the rest of the
// network only through inter-cluster links and the egress models'
// latency floor, which bounds the PDES lookahead; remote events are
// delivered in deterministic (time, source LP, sequence) order, so both
// modes produce bitwise-identical Results.
type Engine struct {
	Cfg    cluster.Config
	Roles  []ClusterRole
	Sim    *sim.Simulator // the first shard's simulator
	Topo   *topo.Topology
	Fabric *netsim.Fabric
	Mimics []*Mimic // indexed by cluster; nil for observed clusters

	shards   []*shardCtx   // one per LP; a single entry when sequential
	clusters []*clusterCtx // one per cluster
	scheds   []*InferenceScheduler
	par      *sim.Parallel // nil when sequential
	hosts    []*transport.Host
	flows    []workload.Flow

	// Progress, if set, is invoked periodically from RunContext's run
	// loop (per window barrier when sharded, every
	// cluster.CancelCheckEvery events when sequential) with the
	// simulated clock and total events processed.
	Progress func(now sim.Time, events uint64)

	// Typed-event handlers for the two continuations of a model-served
	// packet, bound once: re-entering the fabric at a core switch, and
	// delivery to the in-cluster destination host.
	onMaterialize, onDeliver sim.Handler

	cancelled bool
	published [2][2]uint64 // [direction][roleClass] drops already pushed to obs
}

// shardCtx is the per-logical-process slice of an engine: its simulator,
// transport environment, metrics collector, and flow counters. Every
// field is written only by the owning LP's goroutine, so sharded runs
// count and collect without locks; the padding keeps neighboring shards'
// hot counters off each other's cache lines.
type shardCtx struct {
	sim  *sim.Simulator
	env  *transport.Env
	coll *metrics.Collector

	flowsStarted   int
	flowsCompleted int
	_              [8]uint64
}

// clusterCtx is the per-cluster slice: the resolved role and models,
// the Mimic runtime (nil for observed clusters), and the model-path
// counters. A cluster's counters are only touched by its owning LP
// (everything, when sequential), so no synchronization is needed.
type clusterCtx struct {
	role   ClusterRole
	models *MimicModels // resolved override-or-default; nil for observed
	mimic  *Mimic

	e   *Engine
	idx int
	sh  *shardCtx // the LP the cluster's hosts and switches run on

	// what the Mimic calls back with each direction's predictions
	onEgress, onIngress resolveFunc

	modelPackets uint64
	dropsIngress uint64
	dropsEgress  uint64
	feederEvents uint64
	_            [8]uint64
}

// shardIdx maps a cluster index to its logical process: cluster i runs
// on LP i; core switches (ClusterOf == -1) ride with LP 0. Sequential
// engines collapse everything onto the single shard.
func (e *Engine) shardIdx(clusterIdx int) int {
	if e.par == nil || clusterIdx < 0 {
		return 0
	}
	return clusterIdx
}

func (e *Engine) shardFor(clusterIdx int) *shardCtx {
	return e.shards[e.shardIdx(clusterIdx)]
}

// collectsMetrics reports whether a cluster's hosts feed the RTT and
// throughput collectors: exactly the observed clusters. (FCTs are
// recorded for every real flow regardless, as in a full-fidelity run.)
func (e *Engine) collectsMetrics(clusterIdx int) bool {
	return clusterIdx >= 0 && e.clusters[clusterIdx].role.Kind == RoleObserved
}

// engineLookahead returns the PDES lookahead: the minimum latency of any
// cross-LP channel. Core->Agg links bound one direction (propagation
// delay); each egress model's latency floor bounds the other (a modeled
// host's packet re-materializes at a core switch no earlier than Lo
// after injection). Non-positive means the models give no usable margin
// and the engine must run sequentially.
func engineLookahead(link netsim.LinkConfig, clusters []*clusterCtx) sim.Time {
	la := link.Delay
	for _, cc := range clusters {
		if cc.models == nil {
			continue
		}
		if egLo := sim.FromSeconds(cc.models.Egress.Bounds.Lo); egLo < la {
			la = egLo
		}
	}
	return la
}

// shardedWindow caps the inference collection window so the egress
// continuation margin (Lo - window) never drops below the lookahead.
func shardedWindow(window, lookahead sim.Time, models *MimicModels) sim.Time {
	cap := sim.FromSeconds(models.Egress.Bounds.Lo) - lookahead
	if window > cap {
		window = cap
	}
	if window < 0 {
		window = 0
	}
	return window
}

// NewEngine builds a fabric from a role vector (one entry per cluster).
// models is the default artifact for model-using roles without a
// per-cluster override. All parameters other than the role vector and
// cluster count should match the small-scale run that trained the
// models ("Aside from the number of clusters, all other parameters are
// kept constant", §7.1).
func NewEngine(cfg cluster.Config, roles []ClusterRole, models *MimicModels) (*Engine, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("core: config needs a protocol")
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topo.Clusters < 2 {
		return nil, fmt.Errorf("core: composition needs >= 2 clusters")
	}
	if len(roles) != cfg.Topo.Clusters {
		return nil, fmt.Errorf("core: role vector has %d entries for %d clusters", len(roles), cfg.Topo.Clusters)
	}

	// Resolve each cluster's role and models; validate every distinct
	// artifact against the topology's feature spec (per-cluster structure
	// must not change between training and composition).
	clusters := make([]*clusterCtx, len(roles))
	observed := -1
	checked := map[*MimicModels]bool{}
	for i, r := range roles {
		cc := &clusterCtx{role: r}
		switch r.Kind {
		case RoleObserved:
			if observed < 0 {
				observed = i
			}
		case RoleMimic, RoleHybridIngress, RoleHybridEgress:
			m := r.Models
			if m == nil {
				m = models
			}
			if m == nil || m.Ingress == nil || m.Egress == nil {
				return nil, fmt.Errorf("core: cluster %d (%s) missing trained models", i, r.Kind)
			}
			if !checked[m] {
				got := NewFeatureSpec(cfg.Topo)
				got.SkipCongestion = m.Spec.SkipCongestion
				if got.Width() != m.Spec.Width() {
					return nil, fmt.Errorf("core: feature spec mismatch: models trained for width %d, topology needs %d (per-cluster structure must not change)",
						m.Spec.Width(), got.Width())
				}
				checked[m] = true
			}
			cc.models = m
		default:
			return nil, fmt.Errorf("core: cluster %d has unknown role kind %d", i, r.Kind)
		}
		clusters[i] = cc
	}
	if observed < 0 {
		return nil, fmt.Errorf("core: role vector needs at least one observed cluster")
	}
	cfg.Observable = observed

	t := topo.New(cfg.Topo)
	cfg.Workload.HostLinkBps = cfg.Link.RateBps
	allFlows, err := workload.Generate(t, cfg.Workload)
	if err != nil {
		return nil, err
	}
	// Only traffic touching a full-fidelity (observed or hybrid) cluster
	// is simulated as real packets; Mimic-Mimic traffic is approximated
	// by the feeders.
	flows := make([]workload.Flow, 0, len(allFlows))
	for _, f := range allFlows {
		if roles[t.ClusterOf(f.Src)].Kind != RoleMimic || roles[t.ClusterOf(f.Dst)].Kind != RoleMimic {
			flows = append(flows, f)
		}
	}

	link := cfg.Link
	link.SwitchQueue = cfg.QueueFactory()

	lookahead := engineLookahead(link, clusters)
	sharded := cfg.Sharded() && lookahead > 0

	e := &Engine{
		Cfg: cfg, Topo: t,
		Roles:    roles,
		flows:    flows,
		clusters: clusters,
		Mimics:   make([]*Mimic, cfg.Topo.Clusters),
	}

	if sharded {
		e.par = sim.NewParallel(cfg.Topo.Clusters, lookahead)
		e.par.NumWorkers = cfg.ShardWorkers()
		e.shards = make([]*shardCtx, cfg.Topo.Clusters)
		for i := range e.shards {
			e.shards[i] = &shardCtx{sim: e.par.LPs[i].Sim, coll: metrics.NewCollector()}
		}
		shardOf := make([]int, t.Nodes())
		for n := range shardOf {
			if cl := t.ClusterOf(n); cl > 0 {
				shardOf[n] = cl
			}
		}
		e.Fabric = netsim.NewShardedFabric(e.par.LPs, shardOf, t, link)
	} else {
		e.shards = []*shardCtx{{sim: sim.New(), coll: metrics.NewCollector()}}
		e.Fabric = netsim.NewFabric(e.shards[0].sim, t, link)
	}
	e.Sim = e.shards[0].sim
	e.onMaterialize, e.onDeliver = e.materialize, e.deliver

	// Inference schedulers: per LP when sharded, each model-driven
	// cluster batching its own window, capped for cross-LP causality;
	// otherwise one per distinct artifact (a lane bank shares one weight
	// set across its lanes), so a homogeneous composition fuses every
	// cluster into a single scheduler.
	byModels := map[*MimicModels]*InferenceScheduler{}
	for i, cc := range clusters {
		cc.e, cc.idx, cc.sh = e, i, e.shardFor(i)
		cc.onEgress, cc.onIngress = cc.resolveEgress, cc.resolveIngress
		if !cc.role.Kind.usesModels() {
			continue
		}
		sched, shared := byModels[cc.models]
		if sharded || !shared {
			w := cfg.BatchWindow
			if w == 0 {
				w = DefaultBatchWindow(cc.models)
			}
			if sharded {
				w = shardedWindow(w, lookahead, cc.models)
			}
			sched = NewInferenceScheduler(cc.sh.sim, cc.models, w)
			byModels[cc.models] = sched
			e.scheds = append(e.scheds, sched)
		}
		cc.mimic = newMimic(cc.models, i, cfg.Workload.Seed, sched)
		e.Mimics[i] = cc.mimic
	}

	for i, sh := range e.shards {
		sh := sh
		sh.env = &transport.Env{
			Sim:      sh.sim,
			Packets:  e.Fabric.Packets(t.HostID(i, 0, 0)), // shard i runs cluster i
			MSS:      netsim.MSS,
			BDPBytes: cfg.BDPBytes(),
			Inject:   e.inject,
			OnRTT: func(f *transport.Flow, sec float64) {
				if e.collectsMetrics(t.ClusterOf(f.Src)) {
					sh.coll.RTTSample(sec)
				}
			},
			OnComplete: func(f *transport.Flow) {
				sh.coll.FlowCompleted(strconv.FormatUint(f.ID, 10), sh.sim.Now())
				sh.flowsCompleted++
			},
		}
	}

	e.hosts = make([]*transport.Host, t.Hosts())
	for h := 0; h < t.Hosts(); h++ {
		h := h
		sh := e.shardFor(t.ClusterOf(h))
		host := transport.NewHost(h, sh.env, func(f *transport.Flow) *transport.Receiver {
			r := transport.NewReceiver(sh.env, f)
			if transport.IsHoma(cfg.Protocol) {
				bdp := sh.env.BDPBytes
				r.EnableGranting(func(remaining int64) int {
					return transport.HomaPriority(remaining, bdp)
				})
			}
			if e.collectsMetrics(t.ClusterOf(h)) {
				r.OnDeliver = func(n int64) {
					sh.coll.BytesReceived(h, n, sh.sim.Now())
				}
			}
			return r
		})
		e.hosts[h] = host
		e.Fabric.RegisterHost(h, host.Receive)
	}

	if e.needsIntercept() {
		e.Fabric.SetIntercept(e.interceptIngress)
	}

	for _, f := range flows {
		f := f
		e.shardFor(t.ClusterOf(f.Src)).sim.At(f.Start, func() { e.startFlow(f) })
	}
	e.startFeeders()
	return e, nil
}

// needsIntercept reports whether any role swallows packets at the Agg
// boundary (RoleHybridEgress models at injection instead, and observed
// clusters never intercept).
func (e *Engine) needsIntercept() bool {
	for _, cc := range e.clusters {
		if cc.role.Kind == RoleMimic || cc.role.Kind == RoleHybridIngress {
			return true
		}
	}
	return false
}

// inject routes transport packets: full-fidelity sources use the real
// fabric; model-driven sources pass through their cluster's egress model
// first. It always executes on the LP owning pkt.Src's host.
func (e *Engine) inject(pkt *netsim.Packet) {
	t := e.Topo
	pkt.Route(t)
	srcCluster := t.ClusterOf(pkt.Src)
	cc := e.clusters[srcCluster]
	switch cc.role.Kind {
	case RoleMimic:
		// Every real packet leaving a Mimic cluster is external (internal
		// flows were filtered) and rides the egress model.
	case RoleHybridEgress:
		// Only the external egress direction is under test; the modeled
		// cluster's internal traffic rides the real network (Figure 15b).
		if t.ClusterOf(pkt.Dst) == srcCluster {
			e.Fabric.Inject(pkt)
			return
		}
	default:
		e.Fabric.Inject(pkt)
		return
	}
	cc.modelPackets++
	info := BuildPacketInfo(t, srcCluster, pkt, pkt.Src, cc.sh.sim.Now())
	cc.mimic.ProcessAsync(Egress, info, pkt, cc.onEgress)
}

// resolveEgress continues a packet the egress model has ruled on: it
// materializes at its core switch after the predicted in-cluster latency,
// and core and full-fidelity hops are then simulated exactly.
func (cc *clusterCtx) resolveEgress(pkt *netsim.Packet, info PacketInfo, out Outcome) {
	e := cc.e
	coreHop := -1
	if !out.Dropped {
		for i, node := range pkt.Path {
			if e.Topo.KindOf(node) == topo.KindCore {
				coreHop = i
				break
			}
		}
	}
	if coreHop < 0 {
		// Predicted dropped, or — never, such flows are filtered — both
		// endpoints behind the model: treat as model-internal and drop.
		cc.dropsEgress++
		cc.sh.env.Packets.Put(pkt)
		return
	}
	if out.ECNMark {
		pkt.CE = true
	}
	// The latency is relative to arrival and this runs at flush time, so
	// schedule at the absolute instant (clamped in case a custom window
	// outran causality).
	at := info.ArrivalTime + out.Latency
	if now := cc.sh.sim.Now(); at < now {
		at = now
	}
	if e.par != nil {
		// The core switch lives on LP 0: cross the boundary as a remote
		// event. The sharded batch window is capped so this send is
		// always at least one lookahead ahead.
		e.par.LPs[cc.idx].Send(e.par.LPs[0], at, e.onMaterialize, pkt, int64(coreHop))
		return
	}
	cc.sh.sim.Schedule(at, e.onMaterialize, pkt, int64(coreHop))
}

// materialize is the typed event that puts an egress-modeled packet back
// into the fabric at the given hop of its path.
func (e *Engine) materialize(p any, hop int64) {
	e.Fabric.InjectAt(p.(*netsim.Packet), int(hop))
}

// interceptIngress swallows packets descending into a model-driven
// cluster and replaces the in-cluster journey with the ingress model's
// prediction. The fabric calls it on the LP owning the Agg switch, i.e.
// the cluster's own shard; the predicted delivery is local too.
func (e *Engine) interceptIngress(node int, pkt *netsim.Packet) bool {
	t := e.Topo
	if t.KindOf(node) != topo.KindAgg {
		return false
	}
	clusterIdx := t.ClusterOf(node)
	cc := e.clusters[clusterIdx]
	switch cc.role.Kind {
	case RoleMimic:
		// A Mimic cluster has no real internal packets: anything at its
		// Agg bound for an in-cluster host came down from the core.
	case RoleHybridIngress:
		// Only external traffic descending from the core is under test;
		// the modeled cluster's internal traffic rides the real network
		// (Figure 15a).
		if pkt.Hop < 1 || t.KindOf(pkt.Path[pkt.Hop-1]) != topo.KindCore {
			return false
		}
	default:
		return false
	}
	if t.ClusterOf(pkt.Dst) != clusterIdx {
		return false
	}
	cc.modelPackets++
	info := BuildPacketInfo(t, clusterIdx, pkt, pkt.Dst, cc.sh.sim.Now())
	cc.mimic.ProcessAsync(Ingress, info, pkt, cc.onIngress)
	return true
}

// resolveIngress continues a packet the ingress model has ruled on: it
// reaches its destination host after the predicted latency.
func (cc *clusterCtx) resolveIngress(pkt *netsim.Packet, info PacketInfo, out Outcome) {
	if out.Dropped {
		cc.dropsIngress++
		cc.sh.env.Packets.Put(pkt)
		return
	}
	if out.ECNMark {
		pkt.CE = true
	}
	at := info.ArrivalTime + out.Latency
	if now := cc.sh.sim.Now(); at < now {
		at = now
	}
	cc.sh.sim.Schedule(at, cc.e.onDeliver, pkt, 0)
}

// deliver is the typed event that hands an ingress-modeled packet to its
// destination host, which is where the packet's life ends.
func (e *Engine) deliver(p any, _ int64) {
	pkt := p.(*netsim.Packet)
	dst := pkt.Dst
	e.hosts[dst].Receive(pkt)
	e.Fabric.Packets(dst).Put(pkt)
}

func (e *Engine) startFlow(f workload.Flow) {
	sh := e.shardFor(e.Topo.ClusterOf(f.Src))
	tf := &transport.Flow{
		ID: f.ID, Src: f.Src, Dst: f.Dst, Bytes: f.Bytes,
		Hash: topo.FlowHash(f.Src, f.Dst, f.ID),
	}
	sender := e.Cfg.Protocol.NewSender(sh.env, tf)
	e.hosts[f.Src].AddSender(f.ID, sender)
	sh.coll.FlowStarted(strconv.FormatUint(f.ID, 10), f.Src, f.Dst, f.Bytes, sh.sim.Now())
	sh.flowsStarted++
	sender.Start()
}

// startFeeders schedules the per-Mimic, per-direction synthetic traffic
// that keeps internal model state realistic without simulating packets.
// Only Mimic-Mimic traffic is synthetic, so the fitted external rate is
// scaled by the fraction of boundary peers that are themselves Mimics;
// with fewer than two Mimic clusters all external traffic is real and no
// feeders run. Feeder events are local to the Mimic's own shard.
func (e *Engine) startFeeders() {
	n := len(e.clusters)
	mimics := 0
	for _, cc := range e.clusters {
		if cc.role.Kind == RoleMimic {
			mimics++
		}
	}
	if mimics < 2 {
		return
	}
	frac := float64(mimics-1) / float64(n-1)
	for idx, cc := range e.clusters {
		if cc.role.Kind != RoleMimic {
			continue
		}
		for _, dir := range []Direction{Ingress, Egress} {
			dm := cc.models.Ingress
			if dir == Egress {
				dm = cc.models.Egress
			}
			f := &feeder{
				cc: cc, dir: dir, dm: dm, frac: frac,
				rng: stats.NewStream(e.Cfg.Workload.Seed).Derive(
					fmt.Sprintf("feeder-%d-%s", idx, dir)),
			}
			f.schedule()
		}
	}
}

// feeder is one Mimic direction's synthetic traffic source: a chain of
// typed events, each advancing the model once and drawing the gap to the
// next.
type feeder struct {
	cc   *clusterCtx
	dir  Direction
	dm   *DirectionModel
	rng  *stats.Stream
	frac float64
}

func (f *feeder) schedule() {
	gap := FeederGapFrac(f.dm, f.rng, f.frac)
	if gap <= 0 {
		return
	}
	s := f.cc.sh.sim
	s.Schedule(s.Now()+gap, feederFired, f, 0)
}

func feederFired(p any, _ int64) {
	f := p.(*feeder)
	f.cc.feederEvents++
	f.cc.mimic.Feed(f.dir, f.cc.sh.sim.Now())
	f.schedule()
}

// Flows returns the real (full-fidelity-touching) flow schedule.
func (e *Engine) Flows() []workload.Flow { return e.flows }

// Scheduler exposes the batched inference scheduler: the single global
// one when sequential, the first model-driven shard's when sharded
// (each shard owns an identically-configured instance). Nil for a
// composition with no model-driven cluster.
func (e *Engine) Scheduler() *InferenceScheduler {
	if len(e.scheds) == 0 {
		return nil
	}
	return e.scheds[0]
}

// Sharded reports whether this engine runs as parallel LPs.
func (e *Engine) Sharded() bool { return e.par != nil }

// Parallel exposes the PDES coordinator (nil when sequential), for
// inspection of barrier and causality-clamp counts.
func (e *Engine) Parallel() *sim.Parallel { return e.par }

// FlowsStarted returns the number of real flows started.
func (e *Engine) FlowsStarted() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.flowsStarted
	}
	return total
}

// FlowsCompleted returns the number of real flows completed.
func (e *Engine) FlowsCompleted() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.flowsCompleted
	}
	return total
}

// MimicDrops returns packets the models predicted dropped in one
// direction, summed across every model-driven cluster.
func (e *Engine) MimicDrops(dir Direction) uint64 {
	var total uint64
	for _, cc := range e.clusters {
		if dir == Ingress {
			total += cc.dropsIngress
		} else {
			total += cc.dropsEgress
		}
	}
	return total
}

// ModelPackets returns the number of packets served by a model (the
// hybrid harness's "packets through the model under test"; for Mimic
// roles it counts both directions' boundary packets).
func (e *Engine) ModelPackets() uint64 {
	var total uint64
	for _, cc := range e.clusters {
		total += cc.modelPackets
	}
	return total
}

// FeederEvents returns the number of synthetic feeder advances.
func (e *Engine) FeederEvents() uint64 {
	var total uint64
	for _, cc := range e.clusters {
		total += cc.feederEvents
	}
	return total
}

// InferenceSteps totals model steps across all Mimics (Figure 23).
func (e *Engine) InferenceSteps() uint64 {
	var total uint64
	for _, m := range e.Mimics {
		if m != nil {
			total += m.InferenceSteps()
		}
	}
	return total
}

// Run advances the simulation. Any inference requests still collecting
// when the horizon hits are flushed, so every boundary packet that
// arrived gets its prediction, RNG draws and drop accounting.
func (e *Engine) Run(until sim.Time) {
	sp := obs.StartSpan(obsPhaseCompose)
	if e.par != nil {
		e.par.Run(until) // the PDES coordinator publishes its own event deltas
	} else {
		pre := e.Sim.Processed()
		e.Sim.RunUntil(until)
		sim.CountKernelEvents(e.Sim.Processed() - pre)
	}
	e.flushSchedulers()
	e.publishDrops()
	sp.End()
}

func (e *Engine) flushSchedulers() {
	for _, sched := range e.scheds {
		sched.Flush()
	}
}

// publishDrops pushes the per-role drop counters into the unified obs
// family mimicnet_core_mimic_drops_total{dir,cluster_role} as deltas, so
// repeated Run calls never double-count and the hot path stays free of
// atomics.
func (e *Engine) publishDrops() {
	var totals [2][2]uint64
	for _, cc := range e.clusters {
		if !cc.role.Kind.usesModels() {
			continue
		}
		class := cc.role.Kind.roleClass()
		totals[Ingress][class] += cc.dropsIngress
		totals[Egress][class] += cc.dropsEgress
	}
	for dir := range totals {
		for class := range totals[dir] {
			if d := totals[dir][class] - e.published[dir][class]; d > 0 {
				obsMimicDrops[dir][class].Add(d)
				e.published[dir][class] = totals[dir][class]
			}
		}
	}
}

// RunContext is Run with cooperative cancellation and progress. The
// cancellation check rides the window barrier when sharded (windows are
// a lookahead of simulated time, microseconds of wall-clock) and a
// per-event ticker when sequential, so a killed job stops promptly in
// either mode without perturbing an uncancelled run. On cancellation the
// schedulers are still flushed — model state, RNG streams, and drop
// accounting stay consistent — and the metrics collected so far remain
// valid; Results then reports Cancelled rather than the work being
// abandoned silently. Returns true when the run was cancelled.
func (e *Engine) RunContext(ctx context.Context, until sim.Time) (cancelled bool) {
	if ctx == nil || (ctx.Done() == nil && e.Progress == nil) {
		e.Run(until)
		return false
	}
	defer obs.StartSpan(obsPhaseCompose).End()
	tick := func(now sim.Time, events uint64) bool {
		if e.Progress != nil {
			e.Progress(now, events)
		}
		if ctx.Err() != nil {
			e.cancelled = true
			return true
		}
		return false
	}
	if e.par != nil {
		e.par.Ticker = tick
		defer func() { e.par.Ticker = nil }()
		e.par.Run(until)
	} else {
		pre := e.Sim.Processed()
		e.Sim.SetTicker(cluster.CancelCheckEvery, tick)
		defer e.Sim.SetTicker(0, nil)
		e.Sim.RunUntil(until)
		sim.CountKernelEvents(e.Sim.Processed() - pre)
	}
	e.flushSchedulers()
	e.publishDrops()
	return e.cancelled
}

// Results snapshots the collected metrics in the same shape as a
// full-fidelity run, so they can be compared directly. Sharded shards'
// collectors merge losslessly: every flow's records live entirely on its
// source host's LP and all distribution outputs are sorted.
func (e *Engine) Results() cluster.Results {
	coll := e.shards[0].coll
	if len(e.shards) > 1 {
		colls := make([]*metrics.Collector, len(e.shards))
		for i, sh := range e.shards {
			colls[i] = sh.coll
		}
		coll = metrics.Merged(colls...)
	}
	var events uint64
	for _, sh := range e.shards {
		events += sh.sim.Processed()
	}
	return cluster.Results{
		FCTs:        coll.FCTs(),
		Throughputs: coll.Throughputs(),
		RTTs:        coll.RTTs(),
		FCTByID:     coll.FCTByID(),
		Events:      events,
		Packets:     e.Fabric.Injected(),
		Drops:       e.Fabric.Drops() + e.MimicDrops(Ingress) + e.MimicDrops(Egress),
		Cancelled:   e.cancelled,
	}
}
