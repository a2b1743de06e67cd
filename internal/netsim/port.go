package netsim

import (
	"mimicnet/internal/sim"
)

// Port models one direction of a physical link: a queue feeding a
// transmitter of fixed rate, followed by a propagation delay. Ports are
// the only place simulated time is spent in the network, matching the
// store-and-forward behavior of the switches MimicNet learns.
//
// A packet costs the port two typed kernel events — serialization done,
// then arrival at the far end — whose handlers are bound once in newPort,
// so a hop allocates nothing. Most of them go on the simulator's
// portLanes rather than its heap.
type Port struct {
	From, To int // node IDs, for instrumentation

	sim   *sim.Simulator
	lanes *portLanes
	rate  float64  // bits per second
	prop  sim.Time // propagation delay
	queue Queue
	busy  bool

	// deliver is invoked at the remote end once serialization and
	// propagation complete.
	deliver func(*Packet)

	// src and dst, when set, carry the propagation leg from this port's
	// logical process to another's instead of scheduling it locally.
	// Sharded fabrics set them on cluster-boundary ports: the link's
	// propagation delay is exactly the PDES lookahead, so the cross-LP
	// send never violates causality.
	src, dst *sim.LP

	onSerialized, onArrival sim.Handler

	onDrop func(*Packet) // may be nil

	// counters
	Delivered uint64
	Dropped   uint64
}

// portLanes are one simulator's FIFO lanes (sim.Lane) for port events
// whose times never decrease, because every port of a fabric has the same
// rate and propagation delay: a propagation leg ends at now + the delay,
// and a full-size segment or a header-only packet (an ACK or a grant)
// finishes serializing at now + a time fixed by its size. Any other size
// takes the heap.
type portLanes struct {
	arrival, full, header *sim.Lane
}

func newPortLanes(s *sim.Simulator) *portLanes {
	return &portLanes{arrival: s.NewLane(), full: s.NewLane(), header: s.NewLane()}
}

// newPort creates a port on simulator s, whose lanes are ls. rateBps is
// the line rate in bits/second.
func newPort(s *sim.Simulator, ls *portLanes, from, to int, rateBps float64, prop sim.Time, q Queue, deliver func(*Packet)) *Port {
	p := &Port{From: from, To: to, sim: s, lanes: ls, rate: rateBps, prop: prop, queue: q, deliver: deliver}
	p.onSerialized, p.onArrival = p.serialized, p.arrived
	return p
}

// QueueLen returns the instantaneous queue length in packets.
func (p *Port) QueueLen() int { return p.queue.Len() }

// QueueBytes returns the instantaneous queue depth in bytes.
func (p *Port) QueueBytes() int { return p.queue.Bytes() }

// SetDropHook registers a callback invoked when the queue rejects a
// packet. The packet is the hook's to dispose of.
func (p *Port) SetDropHook(fn func(*Packet)) { p.onDrop = fn }

// SetRemote makes arrivals execute on logical process dst; src is the
// process this port's own events run on.
func (p *Port) SetRemote(src, dst *sim.LP) { p.src, p.dst = src, dst }

// SerializationDelay returns the time to clock a packet of the given wire
// size onto the link.
func (p *Port) SerializationDelay(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / p.rate * float64(sim.Second))
}

// Send offers a packet to the port. If the transmitter is idle it begins
// serializing immediately; otherwise the packet is queued (and possibly
// dropped or ECN-marked by the queue discipline).
func (p *Port) Send(pkt *Packet) {
	if !p.busy {
		p.transmit(pkt)
		return
	}
	if p.queue.Enqueue(pkt) {
		return
	}
	p.Dropped++
	if p.onDrop != nil {
		p.onDrop(pkt)
	}
}

func (p *Port) transmit(pkt *Packet) {
	p.busy = true
	at := p.sim.Now() + p.SerializationDelay(pkt.Size)
	switch pkt.Size {
	case mtu:
		p.lanes.full.Schedule(at, p.onSerialized, pkt, 0)
	case HeaderBytes:
		p.lanes.header.Schedule(at, p.onSerialized, pkt, 0)
	default:
		p.sim.Schedule(at, p.onSerialized, pkt, 0)
	}
}

// serialized handles the end of a packet's serialization: the packet
// arrives at the far end prop later and the transmitter moves on to the
// next queued packet at once.
func (p *Port) serialized(x any, _ int64) {
	pkt := x.(*Packet)
	at := p.sim.Now() + p.prop
	if p.dst != nil {
		p.src.Send(p.dst, at, p.onArrival, pkt, 0)
	} else {
		p.lanes.arrival.Schedule(at, p.onArrival, pkt, 0)
	}
	if next := p.queue.Dequeue(); next != nil {
		p.transmit(next)
	} else {
		p.busy = false
	}
}

func (p *Port) arrived(x any, _ int64) {
	p.Delivered++
	p.deliver(x.(*Packet))
}
