package core

import (
	"context"
	"fmt"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
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
// neither could (multiple ground-truth clusters), as one fabric built
// from a vector of per-cluster roles over one trained artifact.

// roleKind classifies how one cluster of a composition is simulated.
type roleKind uint8

const (
	// roleObserved runs the cluster at full netsim fidelity and collects
	// FCT/throughput/RTT metrics at its hosts (the paper's observable
	// cluster).
	roleObserved roleKind = iota
	// roleMimic replaces the cluster's internals with the trained
	// ingress+egress models: external packets are intercepted at the
	// boundary, internal traffic is approximated by feeders (§4, §6).
	roleMimic
	// roleHybridIngress keeps the cluster at full fidelity but serves
	// its *ingress* direction (external packets descending from the
	// core) from the ingress model (Appendix B, Figure 15a).
	roleHybridIngress
	// roleHybridEgress keeps the cluster at full fidelity but serves
	// its *egress* direction (packets leaving its hosts for other
	// clusters) from the egress model (Appendix B, Figure 15b).
	roleHybridEgress
)

func (k roleKind) String() string {
	switch k {
	case roleObserved:
		return "observed"
	case roleMimic:
		return "mimic"
	case roleHybridIngress:
		return "hybrid-ingress"
	case roleHybridEgress:
		return "hybrid-egress"
	}
	return fmt.Sprintf("role(%d)", int(k))
}

// usesModels reports whether the role consumes trained models.
func (k roleKind) usesModels() bool { return k != roleObserved }

// roleClass buckets kinds for the unified drop counter family's
// cluster_role label: fully model-driven clusters vs hybrid ones.
func (k roleKind) roleClass() int {
	if k == roleMimic {
		return roleClassMimic
	}
	return roleClassHybrid
}

// composedRoles is the §7.1 role vector: cluster 0 observed, the other
// n-1 replaced by Mimics.
func composedRoles(n int) []roleKind {
	roles := make([]roleKind, n)
	for i := 1; i < n; i++ {
		roles[i] = roleMimic
	}
	return roles
}

// hybridRoles is the Appendix-B role vector: a 2-cluster full-fidelity
// network with one direction of cluster 1's external traffic served by
// the model under test.
func hybridRoles(dir Direction) []roleKind {
	kind := roleHybridIngress
	if dir == Egress {
		kind = roleHybridEgress
	}
	return []roleKind{roleObserved, kind}
}

// Engine is an N-cluster MimicNet fabric built from a role vector: each
// cluster is observed (full netsim fidelity), a Mimic (model-driven), or
// a hybrid (full fidelity with one direction served by a model). Core
// switches always run at full fidelity.
//
// The Engine is the role layer on top of the one packet-level runtime,
// cluster.Simulation (DESIGN.md decision 24): the runtime owns the
// topology, workload, fabric, hosts, flows, run loop and results; the
// Engine batches inference over its one artifact and routes boundary
// packets through it. It always runs one event queue: cfg.ShardedRun is
// ignored, and a composed run's parallelism is the inference flush's
// lane groups (DESIGN.md decisions 29 and 30).
type Engine struct {
	// Progress, if set, is invoked periodically from RunContext's run
	// loop (every few thousand kernel events) with the simulated clock and
	// total events processed, counted as Results counts them: kernel
	// events plus the feeder advances taken so far.
	Progress func(now sim.Time, events uint64)

	rt       *cluster.Simulation
	clusters []*clusterCtx       // one per cluster
	sched    *inferenceScheduler // shared by every model-using role; nil if none
	streams  stats.Parent        // the workload seed's: every Mimic's and feeder's stream derives from it

	// Typed-event handlers for the two continuations of a model-served
	// packet, bound once: re-entering the fabric at a core switch, and
	// delivery to the in-cluster destination host.
	onMaterialize, onDeliver sim.Handler

	published [2][2]uint64 // [direction][roleClass] drops already pushed to obs
}

// clusterCtx is the per-cluster slice: the role, the Mimic runtime (nil
// for observed clusters), and the model-path counters.
type clusterCtx struct {
	role  roleKind
	mimic *mimic

	e *Engine

	// what the Mimic calls back with each direction's predictions
	onEgress, onIngress resolveFunc

	modelPackets uint64
	dropsIngress uint64
	dropsEgress  uint64
}

// startEngine builds a fabric from a role vector (one entry per cluster)
// and starts its feeders.
// models is the one artifact every model-using role runs; it may be nil
// only when every role is roleObserved. All parameters other than the
// role vector and cluster count should match the small-scale run that
// trained the models ("Aside from the number of clusters, all other parameters are
// kept constant", §7.1).
func startEngine(cfg cluster.Config, roles []roleKind, models *MimicModels) (*Engine, error) {
	e, err := newEngine(cfg, roles, models, ml.SharedPool())
	if err != nil {
		return nil, err
	}
	e.startFeeders()
	return e, nil
}

// newEngine is startEngine with the feeders not started and the inference
// flushes split over pool.
func newEngine(cfg cluster.Config, roles []roleKind, models *MimicModels, pool *ml.Pool) (*Engine, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topo.Clusters < 2 {
		return nil, fmt.Errorf("core: composition needs >= 2 clusters")
	}
	if len(roles) != cfg.Topo.Clusters {
		return nil, fmt.Errorf("core: role vector has %d entries for %d clusters", len(roles), cfg.Topo.Clusters)
	}

	// Validate the roles, and the artifact once against the topology's
	// feature spec if any role uses it (per-cluster structure must not
	// change between training and composition).
	clusters := make([]*clusterCtx, len(roles))
	layer := cluster.Layer{
		Measured:    make([]bool, len(roles)),
		ModelDriven: make([]bool, len(roles)),
	}
	observed, modeled := -1, false
	for i, kind := range roles {
		switch kind {
		case roleObserved:
			if observed < 0 {
				observed = i
			}
			layer.Measured[i] = true
		case roleMimic, roleHybridIngress, roleHybridEgress:
			if models == nil || models.Ingress == nil || models.Egress == nil {
				return nil, fmt.Errorf("core: cluster %d (%s) missing trained models", i, kind)
			}
			modeled = true
			layer.ModelDriven[i] = kind == roleMimic
		default:
			return nil, fmt.Errorf("core: cluster %d has unknown role kind %d", i, kind)
		}
		clusters[i] = &clusterCtx{role: kind}
	}
	if observed < 0 {
		return nil, fmt.Errorf("core: role vector needs at least one observed cluster")
	}
	if modeled {
		got := NewFeatureSpec(cfg.Topo)
		got.SkipCongestion = models.Spec.SkipCongestion
		if got.Width() != models.Spec.Width() {
			return nil, fmt.Errorf("core: feature spec mismatch: models trained for width %d, topology needs %d (per-cluster structure must not change)",
				models.Spec.Width(), got.Width())
		}
	}
	cfg.Observable = observed

	// The layer passes no lookahead, so the runtime is one event queue
	// whatever cfg.ShardedRun says.
	e := &Engine{clusters: clusters, streams: stats.NewParent(cfg.Workload.Seed)}
	layer.Inject = e.inject
	rt, err := cluster.NewLayered(cfg, layer)
	if err != nil {
		return nil, err
	}
	e.rt = rt
	e.onMaterialize, e.onDeliver = e.materialize, e.deliver

	// One inference scheduler for the artifact: a lane bank shares one
	// weight set across its lanes, so every model-using cluster batches
	// into it.
	if modeled {
		e.sched = newInferenceScheduler(rt.Sim, models, defaultBatchWindow(models), pool)
	}
	for i, cc := range clusters {
		cc.e = e
		cc.onEgress, cc.onIngress = cc.resolveEgress, cc.resolveIngress
		if cc.role.usesModels() {
			cc.mimic = newMimic(models, i, e.streams, e.sched)
		}
	}

	if e.needsIntercept() {
		rt.Fabric.SetIntercept(e.interceptIngress)
	}
	return e, nil
}

// needsIntercept reports whether any role swallows packets at the Agg
// boundary (roleHybridEgress models at injection instead, and observed
// clusters never intercept).
func (e *Engine) needsIntercept() bool {
	for _, cc := range e.clusters {
		if cc.role == roleMimic || cc.role == roleHybridIngress {
			return true
		}
	}
	return false
}

// inject routes transport packets: full-fidelity sources use the real
// fabric; model-driven sources pass through their cluster's egress model
// first.
func (e *Engine) inject(pkt *netsim.Packet) {
	t := e.rt.Topo
	pkt.Route(t)
	srcCluster := t.ClusterOf(pkt.Src)
	cc := e.clusters[srcCluster]
	switch cc.role {
	case roleMimic:
		// Every real packet leaving a Mimic cluster is external (internal
		// flows were filtered) and rides the egress model.
	case roleHybridEgress:
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
	info := buildPacketInfo(t, srcCluster, pkt, pkt.Src, e.rt.Sim.Now())
	cc.mimic.ProcessAsync(Egress, info, pkt, cc.onEgress)
}

// resolveEgress continues a packet the egress model has ruled on: it
// materializes at its core switch after the predicted in-cluster latency,
// and core and full-fidelity hops are then simulated exactly.
func (cc *clusterCtx) resolveEgress(pkt *netsim.Packet, info PacketInfo, out outcome) {
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
	if now := e.rt.Sim.Now(); at < now {
		at = now
	}
	e.rt.Sim.Schedule(at, e.onMaterialize, pkt, int64(coreHop))
}

// materialize is the typed event that puts an egress-modeled packet back
// into the fabric at the given hop of its path.
func (e *Engine) materialize(p any, hop int64) {
	e.rt.Fabric.InjectAt(p.(*netsim.Packet), int(hop))
}

// interceptIngress swallows packets descending into a model-driven
// cluster and replaces the in-cluster journey with the ingress model's
// prediction.
func (e *Engine) interceptIngress(node int, pkt *netsim.Packet) bool {
	t := e.rt.Topo
	if t.KindOf(node) != topo.KindAgg {
		return false
	}
	clusterIdx := t.ClusterOf(node)
	cc := e.clusters[clusterIdx]
	switch cc.role {
	case roleMimic:
		// A Mimic cluster has no real internal packets: anything at its
		// Agg bound for an in-cluster host came down from the core.
	case roleHybridIngress:
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
	info := buildPacketInfo(t, clusterIdx, pkt, pkt.Dst, e.rt.Sim.Now())
	cc.mimic.ProcessAsync(Ingress, info, pkt, cc.onIngress)
	return true
}

// resolveIngress continues a packet the ingress model has ruled on: it
// reaches its destination host after the predicted latency.
func (cc *clusterCtx) resolveIngress(pkt *netsim.Packet, info PacketInfo, out outcome) {
	if out.Dropped {
		cc.dropsIngress++
		cc.e.rt.Fabric.Packets(pkt.Dst).Put(pkt)
		return
	}
	if out.ECNMark {
		pkt.CE = true
	}
	k := cc.e.rt.Sim
	at := info.ArrivalTime + out.Latency
	if now := k.Now(); at < now {
		at = now
	}
	k.Schedule(at, cc.e.onDeliver, pkt, 0)
}

// deliver is the typed event that hands an ingress-modeled packet to its
// destination host, which is where the packet's life ends.
func (e *Engine) deliver(p any, _ int64) {
	pkt := p.(*netsim.Packet)
	dst := pkt.Dst
	e.rt.Host(dst).Receive(pkt)
	e.rt.Fabric.Packets(dst).Put(pkt)
}

// startFeeders starts the per-Mimic, per-direction synthetic traffic
// that keeps internal model state realistic without simulating packets,
// and arms the scheduler's first feeder flush. A feeder is lane state
// that the scheduler's flushes advance; it puts no event in the kernel
// queue.
func (e *Engine) startFeeders() {
	frac := e.feederFrac()
	if frac <= 0 {
		return
	}
	for idx, cc := range e.clusters {
		if cc.role != roleMimic {
			continue
		}
		for _, dir := range []Direction{Ingress, Egress} {
			cc.mimic.dir(dir).startFeeder(e.feederStream(idx, dir), frac, e.rt.Sim.Now())
		}
	}
	e.sched.armFeeders()
}

// feederFrac is the share of a Mimic's external traffic that feeders
// synthesize. Only Mimic-Mimic traffic is synthetic, so the fitted
// external rate is scaled by the fraction of boundary peers that are
// themselves Mimics; with fewer than two Mimic clusters all external
// traffic is real and it is 0: no feeders run.
func (e *Engine) feederFrac() float64 {
	mimics := 0
	for _, cc := range e.clusters {
		if cc.role == roleMimic {
			mimics++
		}
	}
	if mimics < 2 {
		return 0
	}
	return float64(mimics-1) / float64(len(e.clusters)-1)
}

// feederStream is the gap stream of cluster idx's feeder in one
// direction.
func (e *Engine) feederStream(idx int, dir Direction) *stats.Stream {
	return e.streams.Derive(fmt.Sprintf("feeder-%d-%s", idx, dir))
}

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

// FeederEvents returns the number of synthetic feeder advances taken.
func (e *Engine) FeederEvents() uint64 {
	var total uint64
	for _, cc := range e.clusters {
		if cc.mimic != nil {
			total += cc.mimic.ing.feed.steps + cc.mimic.eg.feed.steps
		}
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

// publishDrops pushes the per-role drop counters into the unified obs
// family mimicnet_core_mimic_drops_total{dir,cluster_role} as deltas, so
// repeated Run calls never double-count and the hot path stays free of
// atomics.
func (e *Engine) publishDrops() {
	var totals [2][2]uint64
	for _, cc := range e.clusters {
		if !cc.role.usesModels() {
			continue
		}
		class := cc.role.roleClass()
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
// cooperative cancellation and progress), then flushes
// any inference requests still collecting when the horizon or the
// cancellation hit — so every boundary packet that arrived gets its
// prediction, RNG draws and drop accounting — and publishes the drop
// counters. On cancellation the metrics collected so far remain valid
// and Results reports Cancelled. Returns true when the run was
// cancelled.
func (e *Engine) RunContext(ctx context.Context, until sim.Time) (cancelled bool) {
	defer obs.StartSpan(obsPhaseCompose).End()
	e.rt.Progress = nil
	if e.Progress != nil {
		e.rt.Progress = e.progress
	}
	cancelled = e.rt.RunContext(ctx, until)
	if e.sched != nil {
		e.sched.Flush()
	}
	e.publishDrops()
	return cancelled
}

// progress is the runtime's progress hook: Progress with the feeder
// advances counted. It runs between kernel events, so no flush is
// writing the counts.
func (e *Engine) progress(now sim.Time, events uint64) {
	e.Progress(now, events+e.FeederEvents())
}

// Results snapshots the collected metrics in the same shape as a
// full-fidelity run, so they can be compared directly: the runtime's,
// with the models' predicted drops added and one event counted per
// feeder advance.
func (e *Engine) Results() cluster.Results {
	res := e.rt.Results()
	res.Drops += e.MimicDrops(Ingress) + e.MimicDrops(Egress)
	res.Events += e.FeederEvents()
	return res
}
