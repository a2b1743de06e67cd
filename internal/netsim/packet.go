// Package netsim is the packet-level network substrate: links with
// bandwidth and propagation delay, switches with pluggable output queues
// (dropTail, ECN threshold marking, strict priority), and a FatTree
// forwarding fabric with per-flow ECMP. It plays the role of OMNeT++/INET
// in the original MimicNet.
package netsim

import (
	"fmt"

	"mimicnet/internal/sim"
	"mimicnet/internal/topo"
)

// Header sizes in bytes, loosely TCP/IPv4-shaped. Only the totals matter
// to the simulation.
const (
	HeaderBytes = 40   // IP + transport header
	mtu         = 1500 // maximum packet size on the wire
	MSS         = mtu - HeaderBytes
)

// Packet is the unit of simulation. Packets are created by transports and
// routed hop-by-hop along a precomputed up-down path.
//
// Ownership: a packet belongs to whoever was handed it last — the
// transport until Inject, then the fabric, then a Mimic shim if the
// intercept hook swallows it — and the owner at a terminal point gives it
// back to the PacketPool of the logical process it is running on: the
// fabric after the destination host's receive callback returns and after
// a queue drop, the composition engine after a Mimic-predicted drop or a
// modeled delivery. From then on the memory is the next packet's. Receive
// callbacks, taps (Fabric.Taps, and through them core.Tracer) and the
// intercept hook therefore read what they need while they run and keep
// values, never the *Packet; a copy of the struct is not a safe
// substitute either, because Path points into the original.
type Packet struct {
	ID     uint64 // globally unique, for trace matching
	FlowID uint64 // connection identity
	Src    int    // source host (dense topo ID)
	Dst    int    // destination host

	Seq     int64 // first payload byte index (data) or next expected (ACK)
	Payload int   // payload bytes
	Size    int   // total wire size = Payload + HeaderBytes

	IsAck    bool
	AckSeq   int64 // cumulative ACK (valid when IsAck)
	SackHint int64 // highest sequence seen out-of-order, 0 if none

	ECT       bool  // ECN-capable transport
	CE        bool  // congestion experienced (marked in network)
	ECNEcho   bool  // receiver echoes CE back to sender (valid when IsAck)
	Priority  int   // priority band (Homa); 0 = highest
	GrantseqG int64 // Homa grant offset (valid for grant packets)
	GrantPrio int   // priority band the sender should use for granted data
	IsGrant   bool

	Hash uint64 // ECMP hash, fixed per flow

	SentAt sim.Time // transport-level send time (for RTT samples)
	EchoTS sim.Time // timestamp echoed by the receiver (valid when IsAck)

	FlowBytes int64 // total flow size, so receivers can track completion

	// Path is the node sequence from source to destination host; Hop
	// indexes the node the packet currently sits at.
	Path []int
	Hop  int

	route [topo.MaxPathLen]int // Path's backing store when set by Route
	next  *Packet              // free-list link while in a PacketPool
}

// Route sets Path to the topology's route from Src to Dst under Hash. The
// route is stored inside the packet, so routing allocates nothing.
func (p *Packet) Route(t *topo.Topology) {
	p.Path = t.AppendPath(p.route[:0], p.Src, p.Dst, p.Hash)
}

// String summarizes the packet for debugging.
func (p *Packet) String() string {
	kind := "data"
	if p.IsAck {
		kind = "ack"
	}
	if p.IsGrant {
		kind = "grant"
	}
	return fmt.Sprintf("pkt(%d %s flow=%d %d->%d seq=%d len=%d)", p.ID, kind, p.FlowID, p.Src, p.Dst, p.Seq, p.Payload)
}

// NextNode returns the node after the current hop, or -1 at the path end.
func (p *Packet) NextNode() int {
	if p.Hop+1 >= len(p.Path) {
		return -1
	}
	return p.Path[p.Hop+1]
}

// PacketPool recycles the packets of one logical process: Get hands out a
// zeroed packet, Put takes one back at the end of its life (see Packet for
// who calls it). A pool is touched by its own LP only and needs no lock; a
// packet may be returned to a different pool than it came from, which is
// what happens to everything that crosses a shard boundary. The pool
// grows by packetBlock packets when it runs dry and is never sized up
// front. The zero value is an empty pool.
type PacketPool struct {
	free *Packet
}

// packetBlock is how many packets one refill allocates.
const packetBlock = 64

// poisonOnRelease makes Put overwrite the packet with values that cannot
// be routed, queued or delivered, and then abandon it to the garbage
// collector, so that a holder of a stale pointer panics at its next use
// (or, if it only reads, reports garbage) instead of quietly sharing
// memory with an unrelated packet. It is set by tests only, before any
// simulation runs.
var poisonOnRelease bool

const poisonHop = -1 << 40

// Get returns a zeroed packet.
func (pp *PacketPool) Get() *Packet {
	if pp.free == nil {
		block := make([]Packet, packetBlock)
		for i := range block {
			block[i].next = pp.free
			pp.free = &block[i]
		}
	}
	p := pp.free
	pp.free = p.next
	p.next = nil
	return p
}

// Put ends a packet's life. The caller must hold the only live reference.
func (pp *PacketPool) Put(p *Packet) {
	if poisonOnRelease {
		if p.Hop == poisonHop {
			panic("netsim: packet released twice")
		}
		*p = Packet{ID: ^uint64(0), FlowID: ^uint64(0), Src: -1, Dst: -1, Size: -1, Hop: poisonHop}
		return
	}
	*p = Packet{}
	p.next = pp.free
	pp.free = p
}
