package core

import (
	"context"
	"fmt"

	"mimicnet/internal/cluster"
	"mimicnet/internal/netsim"
	"mimicnet/internal/obs"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
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
// The Engine is the role layer on top of the one packet-level runtime,
// cluster.Simulation (DESIGN.md decision 24): the runtime owns the
// topology, workload, fabric, hosts, flows, run loop and results; the
// Engine resolves models, batches inference, and routes boundary packets
// through them. The runtime runs either sequentially or sharded into one
// logical process per cluster (cfg.ShardedRun > 0), with core switches
// riding on LP 0. Model-driven clusters interact with the rest of the
// network only through inter-cluster links and the egress models'
// latency floor, which bounds the PDES lookahead; remote events are
// delivered in deterministic (time, source LP, sequence) order, so both
// modes produce bitwise-identical Results.
type Engine struct {
	// Progress, if set, is invoked periodically from RunContext's run
	// loop (per window barrier when sharded, every few thousand events
	// when sequential) with the simulated clock and total events
	// processed.
	Progress func(now sim.Time, events uint64)

	rt       *cluster.Simulation
	clusters []*clusterCtx // one per cluster
	scheds   []*InferenceScheduler

	// Typed-event handlers for the two continuations of a model-served
	// packet, bound once: re-entering the fabric at a core switch, and
	// delivery to the in-cluster destination host.
	onMaterialize, onDeliver sim.Handler

	published [2][2]uint64 // [direction][roleClass] drops already pushed to obs
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
	sim *sim.Simulator // the LP the cluster's hosts and switches run on

	// what the Mimic calls back with each direction's predictions
	onEgress, onIngress resolveFunc

	modelPackets uint64
	dropsIngress uint64
	dropsEgress  uint64
	feederEvents uint64
	_            [8]uint64
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
	layer := cluster.Layer{
		Measured:    make([]bool, len(roles)),
		ModelDriven: make([]bool, len(roles)),
	}
	observed := -1
	checked := map[*MimicModels]bool{}
	for i, r := range roles {
		cc := &clusterCtx{role: r}
		switch r.Kind {
		case RoleObserved:
			if observed < 0 {
				observed = i
			}
			layer.Measured[i] = true
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
			layer.ModelDriven[i] = r.Kind == RoleMimic
		default:
			return nil, fmt.Errorf("core: cluster %d has unknown role kind %d", i, r.Kind)
		}
		clusters[i] = cc
	}
	if observed < 0 {
		return nil, fmt.Errorf("core: role vector needs at least one observed cluster")
	}
	cfg.Observable = observed

	e := &Engine{clusters: clusters}
	layer.Lookahead = engineLookahead(cfg.Link, clusters)
	layer.Inject = e.inject
	rt, err := cluster.NewLayered(cfg, layer)
	if err != nil {
		return nil, err
	}
	e.rt = rt
	e.onMaterialize, e.onDeliver = e.materialize, e.deliver
	par := rt.Parallel()

	// Inference schedulers: per LP when sharded, each model-driven
	// cluster batching its own window, capped for cross-LP causality;
	// otherwise one per distinct artifact (a lane bank shares one weight
	// set across its lanes), so a homogeneous composition fuses every
	// cluster into a single scheduler.
	byModels := map[*MimicModels]*InferenceScheduler{}
	for i, cc := range clusters {
		cc.e, cc.idx, cc.sim = e, i, rt.Sim
		if par != nil {
			cc.sim = par.LPs[i].Sim
		}
		cc.onEgress, cc.onIngress = cc.resolveEgress, cc.resolveIngress
		if !cc.role.Kind.usesModels() {
			continue
		}
		sched, shared := byModels[cc.models]
		if par != nil || !shared {
			w := defaultBatchWindow(cc.models)
			if par != nil {
				w = shardedWindow(w, layer.Lookahead, cc.models)
			}
			sched = NewInferenceScheduler(cc.sim, cc.models, w)
			byModels[cc.models] = sched
			e.scheds = append(e.scheds, sched)
		}
		cc.mimic = newMimic(cc.models, i, cfg.Workload.Seed, sched)
	}

	if e.needsIntercept() {
		rt.Fabric.SetIntercept(e.interceptIngress)
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
	t := e.rt.Topo
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
			e.rt.Fabric.Inject(pkt)
			return
		}
	default:
		e.rt.Fabric.Inject(pkt)
		return
	}
	cc.modelPackets++
	info := BuildPacketInfo(t, srcCluster, pkt, pkt.Src, cc.sim.Now())
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
			if e.rt.Topo.KindOf(node) == topo.KindCore {
				coreHop = i
				break
			}
		}
	}
	if coreHop < 0 {
		// Predicted dropped, or — never, such flows are filtered — both
		// endpoints behind the model: treat as model-internal and drop.
		cc.dropsEgress++
		e.rt.Fabric.Packets(pkt.Src).Put(pkt)
		return
	}
	if out.ECNMark {
		pkt.CE = true
	}
	// The latency is relative to arrival and this runs at flush time, so
	// schedule at the absolute instant (clamped, should a flush ever run
	// past it).
	at := info.ArrivalTime + out.Latency
	if now := cc.sim.Now(); at < now {
		at = now
	}
	if par := e.rt.Parallel(); par != nil {
		// The core switch lives on LP 0: cross the boundary as a remote
		// event. The sharded batch window is capped so this send is
		// always at least one lookahead ahead.
		par.LPs[cc.idx].Send(par.LPs[0], at, e.onMaterialize, pkt, int64(coreHop))
		return
	}
	cc.sim.Schedule(at, e.onMaterialize, pkt, int64(coreHop))
}

// materialize is the typed event that puts an egress-modeled packet back
// into the fabric at the given hop of its path.
func (e *Engine) materialize(p any, hop int64) {
	e.rt.Fabric.InjectAt(p.(*netsim.Packet), int(hop))
}

// interceptIngress swallows packets descending into a model-driven
// cluster and replaces the in-cluster journey with the ingress model's
// prediction. The fabric calls it on the LP owning the Agg switch, i.e.
// the cluster's own shard; the predicted delivery is local too.
func (e *Engine) interceptIngress(node int, pkt *netsim.Packet) bool {
	t := e.rt.Topo
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
	info := BuildPacketInfo(t, clusterIdx, pkt, pkt.Dst, cc.sim.Now())
	cc.mimic.ProcessAsync(Ingress, info, pkt, cc.onIngress)
	return true
}

// resolveIngress continues a packet the ingress model has ruled on: it
// reaches its destination host after the predicted latency.
func (cc *clusterCtx) resolveIngress(pkt *netsim.Packet, info PacketInfo, out Outcome) {
	if out.Dropped {
		cc.dropsIngress++
		cc.e.rt.Fabric.Packets(pkt.Dst).Put(pkt)
		return
	}
	if out.ECNMark {
		pkt.CE = true
	}
	at := info.ArrivalTime + out.Latency
	if now := cc.sim.Now(); at < now {
		at = now
	}
	cc.sim.Schedule(at, cc.e.onDeliver, pkt, 0)
}

// deliver is the typed event that hands an ingress-modeled packet to its
// destination host, which is where the packet's life ends.
func (e *Engine) deliver(p any, _ int64) {
	pkt := p.(*netsim.Packet)
	dst := pkt.Dst
	e.rt.Host(dst).Receive(pkt)
	e.rt.Fabric.Packets(dst).Put(pkt)
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
				rng: stats.NewStream(e.rt.Cfg.Workload.Seed).Derive(
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
	s := f.cc.sim
	s.Schedule(s.Now()+gap, feederFired, f, 0)
}

func feederFired(p any, _ int64) {
	f := p.(*feeder)
	f.cc.feederEvents++
	f.cc.mimic.Feed(f.dir, f.cc.sim.Now())
	f.schedule()
}

// Sharded reports whether this engine runs as parallel LPs.
func (e *Engine) Sharded() bool { return e.rt.Parallel() != nil }

// Parallel exposes the PDES coordinator (nil when sequential), for
// inspection of barrier and causality-clamp counts.
func (e *Engine) Parallel() *sim.Parallel { return e.rt.Parallel() }

// FlowsStarted returns the number of measured flows started: real flows
// touching an observed cluster.
func (e *Engine) FlowsStarted() int { return e.rt.FlowsStarted() }

// FlowsCompleted returns the number of measured flows completed.
func (e *Engine) FlowsCompleted() int { return e.rt.FlowsCompleted() }

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
	for _, cc := range e.clusters {
		if cc.mimic != nil {
			total += cc.mimic.InferenceSteps()
		}
	}
	return total
}

// Run advances the simulation: RunContext without a context.
func (e *Engine) Run(until sim.Time) { e.RunContext(context.Background(), until) }

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

// RunContext runs the runtime's loop (cluster.Simulation.RunContext:
// cooperative cancellation and progress in either mode), then flushes
// any inference requests still collecting when the horizon or the
// cancellation hit — so every boundary packet that arrived gets its
// prediction, RNG draws and drop accounting — and publishes the drop
// counters. On cancellation the metrics collected so far remain valid
// and Results reports Cancelled. Returns true when the run was
// cancelled.
func (e *Engine) RunContext(ctx context.Context, until sim.Time) (cancelled bool) {
	defer obs.StartSpan(obsPhaseCompose).End()
	e.rt.Progress = e.Progress
	cancelled = e.rt.RunContext(ctx, until)
	e.flushSchedulers()
	e.publishDrops()
	return cancelled
}

// Results snapshots the collected metrics in the same shape as a
// full-fidelity run, so they can be compared directly: the runtime's,
// with the models' predicted drops added.
func (e *Engine) Results() cluster.Results {
	res := e.rt.Results()
	res.Drops += e.MimicDrops(Ingress) + e.MimicDrops(Egress)
	return res
}
