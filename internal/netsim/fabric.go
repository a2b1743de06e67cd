package netsim

import (
	"fmt"

	"mimicnet/internal/sim"
	"mimicnet/internal/topo"
)

// LinkConfig sets the physical parameters of every link, mirroring the
// paper's evaluation setup (100 Mbps, 500 µs).
type LinkConfig struct {
	RateBps float64  // line rate in bits/second
	Delay   sim.Time // one-way propagation delay

	// SwitchQueue builds the queue for switch-to-anything ports;
	// HostQueue for host NIC egress ports. HostQueue defaults to
	// SwitchQueue when nil.
	SwitchQueue QueueFactory
	HostQueue   QueueFactory
}

// DefaultLinkConfig returns the paper's base parameters with DropTail
// queues of 100 packets.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		RateBps:     100e6,
		Delay:       500 * sim.Microsecond,
		SwitchQueue: DropTailFactory(100),
	}
}

// Taps are instrumentation hooks. MimicNet's training data comes entirely
// from taps placed at the modeled cluster's Core-facing and Host-facing
// junctures (paper §5.1); arbitrary additional instrumentation of the
// observable cluster uses the same mechanism. Taps fire on the logical
// process that owns the tapped node; in sharded fabrics a single tap
// function would be called from multiple goroutines, so taps are only
// supported on single-process fabrics (training runs are single-process).
type Taps struct {
	// OnSend fires when a packet is offered to the port from->to (before
	// any queue/drop decision).
	OnSend func(from, to int, pkt *Packet, at sim.Time)
	// OnArrive fires when a packet arrives at a node (host or switch).
	OnArrive func(node int, pkt *Packet, at sim.Time)
	// OnDrop fires when the port from->to rejects a packet.
	OnDrop func(from, to int, pkt *Packet, at sim.Time)
}

// fabricShard is one logical process's slice of the fabric: its event
// accounting and its packet pool. Each LP writes only its own cell, so
// sharded runs count and recycle without atomics; the struct is padded to
// a cache line to keep neighboring shards' writes from false-sharing.
type fabricShard struct {
	injected  uint64
	delivered uint64
	drops     uint64
	packets   PacketPool
	_         [4]uint64
}

// nodePorts is one node's output ports, indexed by neighbor ID. A node's
// downward neighbors have smaller IDs than it and its upward neighbors
// larger ones, and each group is (nearly) contiguous, so two short dense
// tables cover them; a slot with no link behind it is nil.
type nodePorts struct {
	down, up portTable
}

// portTable maps the neighbor IDs base..base+len(ports)-1 to ports.
type portTable struct {
	base  int
	ports []*Port
}

// toward returns the table that holds the port from node `from` to `to`.
func (np *nodePorts) toward(from, to int) *portTable {
	if to < from {
		return &np.down
	}
	return &np.up
}

func (pt *portTable) get(id int) *Port {
	if i := id - pt.base; i >= 0 && i < len(pt.ports) {
		return pt.ports[i]
	}
	return nil
}

// set stores the port for neighbor id, widening the table to reach it.
func (pt *portTable) set(id int, p *Port) {
	switch {
	case len(pt.ports) == 0:
		pt.base = id
	case id < pt.base:
		pt.ports = append(make([]*Port, pt.base-id), pt.ports...)
		pt.base = id
	}
	for id >= pt.base+len(pt.ports) {
		pt.ports = append(pt.ports, nil)
	}
	pt.ports[id-pt.base] = p
}

// Fabric wires a FatTree topology into ports and forwards packets along
// their precomputed up-down paths. A fabric is either single-process
// (NewFabric) or sharded across logical processes (NewShardedFabric), in
// which case each node's ports and arrivals execute on the LP that owns
// the node and cluster-boundary links carry packets between LPs.
type Fabric struct {
	Topo *topo.Topology
	Sim  *sim.Simulator // shard 0's simulator (the only one when single-process)
	Link LinkConfig
	Taps Taps

	lps     []*sim.LP // nil when single-process
	shardOf []int     // node -> owning shard; nil when single-process

	nodes []nodePorts // indexed by transmitting node
	ports []*Port     // every port, in construction order
	hosts []func(*Packet)

	// intercept, when set, is consulted on every node arrival; returning
	// true swallows the packet (MimicNet's shim layer "intercepts packets
	// arriving at the borders of the cluster", paper §7.1).
	intercept func(node int, pkt *Packet) bool

	shards []fabricShard // one cell per LP
}

// NewFabric builds every directed port of the topology on one simulator.
func NewFabric(s *sim.Simulator, t *topo.Topology, link LinkConfig) *Fabric {
	return build(s, nil, nil, t, link)
}

// NewShardedFabric builds the fabric across logical processes: node n's
// ports, queues, and arrivals execute on lps[shardOf[n]], and ports whose
// endpoints live on different LPs deliver their propagation leg as a
// remote event. The link propagation delay is the natural PDES lookahead
// for such a partitioning. shardOf must assign every node (len =
// t.Nodes()) a shard in [0, len(lps)).
func NewShardedFabric(lps []*sim.LP, shardOf []int, t *topo.Topology, link LinkConfig) *Fabric {
	if len(shardOf) != t.Nodes() {
		panic(fmt.Sprintf("netsim: shardOf covers %d nodes, topology has %d", len(shardOf), t.Nodes()))
	}
	return build(lps[0].Sim, lps, shardOf, t, link)
}

func build(s *sim.Simulator, lps []*sim.LP, shardOf []int, t *topo.Topology, link LinkConfig) *Fabric {
	if link.SwitchQueue == nil {
		panic("netsim: LinkConfig.SwitchQueue is required")
	}
	if link.HostQueue == nil {
		link.HostQueue = link.SwitchQueue
	}
	nShards := 1
	if lps != nil {
		nShards = len(lps)
	}
	f := &Fabric{
		Topo:    t,
		Sim:     s,
		Link:    link,
		lps:     lps,
		shardOf: shardOf,
		nodes:   make([]nodePorts, t.Nodes()),
		hosts:   make([]func(*Packet), t.Hosts()),
		shards:  make([]fabricShard, nShards),
	}
	for _, l := range t.Links() {
		f.addPort(l.A, l.B)
		f.addPort(l.B, l.A)
	}
	return f
}

// shard returns the shard index owning a node (always 0 single-process).
func (f *Fabric) shard(node int) int {
	if f.shardOf == nil {
		return 0
	}
	return f.shardOf[node]
}

// simFor returns the simulator executing a node's events.
func (f *Fabric) simFor(node int) *sim.Simulator {
	if f.lps == nil {
		return f.Sim
	}
	return f.lps[f.shardOf[node]].Sim
}

func (f *Fabric) addPort(from, to int) {
	var q Queue
	if f.Topo.KindOf(from) == topo.KindHost {
		q = f.Link.HostQueue()
	} else {
		q = f.Link.SwitchQueue()
	}
	srcSim := f.simFor(from)
	p := NewPort(srcSim, from, to, f.Link.RateBps, f.Link.Delay, q, func(pkt *Packet) {
		f.arrive(to, pkt)
	})
	srcShard := f.shard(from)
	sh := &f.shards[srcShard]
	p.SetDropHook(func(pkt *Packet) {
		sh.drops++
		if f.Taps.OnDrop != nil {
			f.Taps.OnDrop(from, to, pkt, srcSim.Now())
		}
		sh.packets.Put(pkt)
	})
	if dstShard := f.shard(to); dstShard != srcShard {
		p.SetRemote(f.lps[srcShard], f.lps[dstShard])
	}
	f.nodes[from].toward(from, to).set(to, p)
	f.ports = append(f.ports, p)
}

// Port returns the directed port from->to, or nil if no such link exists.
func (f *Fabric) Port(from, to int) *Port {
	if from < 0 || from >= len(f.nodes) {
		return nil
	}
	return f.nodes[from].toward(from, to).get(to)
}

// Packets returns the packet pool of the logical process that owns node.
// Transports on that node take their packets from it, and whoever ends a
// packet's life there (see Packet) returns it.
func (f *Fabric) Packets(node int) *PacketPool { return &f.shards[f.shard(node)].packets }

// RegisterHost sets the receive callback for a host.
func (f *Fabric) RegisterHost(host int, recv func(*Packet)) {
	f.hosts[host] = recv
}

// Inject sends a packet from its source host. The packet's Path must
// start at the source host; the fabric takes over from there. In sharded
// fabrics the caller must be executing on the source host's LP (transport
// stacks are built per-shard, so this holds by construction).
func (f *Fabric) Inject(pkt *Packet) {
	if len(pkt.Path) == 0 || pkt.Path[0] != pkt.Src {
		panic(fmt.Sprintf("netsim: packet path must start at source: %v", pkt))
	}
	f.shards[f.shard(pkt.Src)].injected++
	pkt.Hop = 0
	if len(pkt.Path) == 1 {
		// Loopback: deliver immediately.
		f.deliverLocal(pkt)
		return
	}
	f.forward(pkt)
}

// deliverLocal hands the packet to its destination host and, once the
// host's callback has returned, ends the packet's life.
func (f *Fabric) deliverLocal(pkt *Packet) {
	sh := &f.shards[f.shard(pkt.Dst)]
	sh.delivered++
	if recv := f.hosts[pkt.Dst]; recv != nil {
		recv(pkt)
	}
	sh.packets.Put(pkt)
}

func (f *Fabric) forward(pkt *Packet) {
	from := pkt.Path[pkt.Hop]
	to := pkt.NextNode()
	port := f.Port(from, to)
	if port == nil {
		panic(fmt.Sprintf("netsim: no port %d->%d for %v", from, to, pkt))
	}
	if f.Taps.OnSend != nil {
		f.Taps.OnSend(from, to, pkt, f.simFor(from).Now())
	}
	port.Send(pkt)
}

// SetIntercept installs the arrival interceptor (nil to clear). A packet
// the interceptor swallows is the interceptor's from then on.
func (f *Fabric) SetIntercept(fn func(node int, pkt *Packet) bool) {
	f.intercept = fn
}

// InjectAt resumes a packet's journey from the given hop index of its
// path, as if it had just arrived at pkt.Path[hop]. Mimic shims use this
// to hand predicted egress packets to the real core switches. In sharded
// fabrics the caller must be executing on the LP owning pkt.Path[hop].
func (f *Fabric) InjectAt(pkt *Packet, hop int) {
	if hop < 0 || hop >= len(pkt.Path) {
		panic(fmt.Sprintf("netsim: InjectAt hop %d out of range for %v", hop, pkt))
	}
	f.shards[f.shard(pkt.Path[hop])].injected++
	pkt.Hop = hop
	if hop == len(pkt.Path)-1 {
		f.deliverLocal(pkt)
		return
	}
	f.forward(pkt)
}

func (f *Fabric) arrive(node int, pkt *Packet) {
	pkt.Hop++
	if f.Taps.OnArrive != nil {
		f.Taps.OnArrive(node, pkt, f.simFor(node).Now())
	}
	if f.intercept != nil && f.intercept(node, pkt) {
		return
	}
	if pkt.Hop == len(pkt.Path)-1 {
		if node != pkt.Dst {
			panic(fmt.Sprintf("netsim: packet terminated at %d, not dst %d", node, pkt.Dst))
		}
		f.deliverLocal(pkt)
		return
	}
	f.forward(pkt)
}

// Injected returns the number of packets entered into the fabric.
func (f *Fabric) Injected() uint64 { return f.sum(func(c *fabricShard) uint64 { return c.injected }) }

// Delivered returns the number of packets handed to destination hosts.
func (f *Fabric) Delivered() uint64 {
	return f.sum(func(c *fabricShard) uint64 { return c.delivered })
}

// Drops returns the number of packets rejected by queues.
func (f *Fabric) Drops() uint64 { return f.sum(func(c *fabricShard) uint64 { return c.drops }) }

// sum totals one counter across shards. Callers must not race with a
// running sharded simulation; between windows and after Run is safe.
func (f *Fabric) sum(get func(*fabricShard) uint64) uint64 {
	var total uint64
	for i := range f.shards {
		total += get(&f.shards[i])
	}
	return total
}
