// Package transport implements the end-host protocols evaluated by
// MimicNet: TCP New Reno (the base configuration), DCTCP, TCP Vegas, TCP
// Westwood, and a receiver-driven priority-based Homa-like protocol
// (paper §9, §9.4.2). Each protocol stresses the Mimic models
// differently—ECN bits, delay sensitivity, bandwidth estimation, and
// packet reordering via priorities.
//
// A transport moves one flow (a unidirectional byte transfer) between two
// hosts. The hosting environment supplies packet injection and timers; a
// Host demultiplexes arriving packets to per-flow endpoints.
package transport

import (
	"fmt"

	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
)

// Env is the execution environment handed to transport endpoints by the
// simulation builder.
type Env struct {
	Sim *sim.Simulator
	// Packets is where endpoints take their packets from: the pool of the
	// logical process they run on (netsim.Fabric.Packets).
	Packets *netsim.PacketPool
	// Inject fills in routing state and sends the packet into the
	// network (or a Mimic model), which owns it from then on.
	Inject func(*netsim.Packet)
	// MSS is the maximum payload per packet.
	MSS int
	// BDPBytes is the estimated bandwidth-delay product, used for Homa's
	// unscheduled window and initial TCP ssthresh scaling.
	BDPBytes int

	// OnRTT, if non-nil, receives each valid RTT sample (seconds) taken
	// by a sender. The observable cluster wires this to the metrics
	// collector.
	OnRTT func(flow *Flow, seconds float64)
	// OnComplete, if non-nil, fires once when the sender has confirmed
	// delivery of all flow bytes.
	OnComplete func(flow *Flow)

	nextPktID uint64
}

// NewPacketID returns a unique packet ID within this environment.
func (e *Env) NewPacketID() uint64 {
	e.nextPktID++
	return e.nextPktID
}

// newPacket takes a packet from the pool and fills in what every packet
// of flow f carries; forward is the data direction, !forward the ACK and
// grant direction (whose ECMP hash differs, so the reverse path may too).
func (e *Env) newPacket(f *Flow, forward bool) *netsim.Packet {
	pkt := e.Packets.Get()
	pkt.ID = e.NewPacketID()
	pkt.FlowID = f.ID
	if forward {
		pkt.Src, pkt.Dst, pkt.Hash = f.Src, f.Dst, f.Hash
	} else {
		pkt.Src, pkt.Dst, pkt.Hash = f.Dst, f.Src, f.Hash+1
	}
	pkt.SentAt = e.Sim.Now()
	return pkt
}

// Flow identifies one transfer.
type Flow struct {
	ID    uint64
	Src   int
	Dst   int
	Bytes int64
	Hash  uint64 // ECMP hash shared by all packets of the flow
}

// String renders the flow for debugging.
func (f *Flow) String() string {
	return fmt.Sprintf("flow(%d %d->%d %dB)", f.ID, f.Src, f.Dst, f.Bytes)
}

// Sender drives one flow's send side.
type Sender interface {
	// Start begins transmission.
	Start()
	// HandleAck processes an arriving ACK or grant addressed to the
	// sender.
	HandleAck(pkt *netsim.Packet)
}

// Protocol constructs senders; the receive side is protocol-independent
// except for ECN echoing and granting, which the Receiver handles based
// on packet contents.
type Protocol interface {
	Name() string
	NewSender(env *Env, flow *Flow) Sender
	// UsesECN reports whether data packets should be ECN-capable.
	UsesECN() bool
	// QueueBands returns the number of switch priority bands the
	// protocol expects (1 for FIFO protocols).
	QueueBands() int
}

// Receiver implements the flow's receive side: cumulative ACKs with
// out-of-order tracking, ECN echoing, and (for Homa) grant generation.
type Receiver struct {
	env  *Env
	flow *Flow

	rcvNxt int64
	ooo    map[int64]int64 // out-of-order segments: start -> end

	// granting state (Homa)
	granting   bool
	granted    int64
	grantPrios func(remaining int64) int

	// OnDeliver, if non-nil, receives payload byte counts as they arrive
	// in order (for throughput accounting).
	OnDeliver func(bytes int64)
}

// NewReceiver builds a receive endpoint for the flow.
func NewReceiver(env *Env, flow *Flow) *Receiver {
	return &Receiver{env: env, flow: flow, ooo: make(map[int64]int64)}
}

// HandleData processes an arriving data packet and emits an ACK (and
// grants, when granting is enabled).
func (r *Receiver) HandleData(pkt *netsim.Packet) {
	start, end := pkt.Seq, pkt.Seq+int64(pkt.Payload)
	if end > r.rcvNxt {
		if start <= r.rcvNxt {
			r.advance(end)
		} else if cur, ok := r.ooo[start]; !ok || end > cur {
			r.ooo[start] = end
		}
	}
	r.sendAck(pkt)
	if r.granting {
		r.maybeGrant(pkt)
	}
}

func (r *Receiver) advance(end int64) {
	prev := r.rcvNxt
	r.rcvNxt = end
	// Coalesce any out-of-order segments now contiguous.
	for {
		merged := false
		for s, e := range r.ooo {
			if s <= r.rcvNxt {
				if e > r.rcvNxt {
					r.rcvNxt = e
				}
				delete(r.ooo, s)
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	if r.OnDeliver != nil && r.rcvNxt > prev {
		r.OnDeliver(r.rcvNxt - prev)
	}
}

func (r *Receiver) sendAck(data *netsim.Packet) {
	var sack int64
	if len(r.ooo) > 0 {
		for _, e := range r.ooo {
			if e > sack {
				sack = e
			}
		}
	}
	ack := r.env.newPacket(r.flow, false)
	ack.IsAck = true
	ack.AckSeq = r.rcvNxt
	ack.SackHint = sack
	ack.Size = netsim.HeaderBytes
	ack.ECNEcho = data.CE
	ack.EchoTS = data.SentAt
	r.env.Inject(ack)
}

// EnableGranting turns on Homa-style receiver-driven grants. prio maps
// remaining bytes to a priority band for granted data.
func (r *Receiver) EnableGranting(prio func(remaining int64) int) {
	r.granting = true
	r.grantPrios = prio
}

func (r *Receiver) maybeGrant(data *netsim.Packet) {
	total := data.FlowBytes
	if total == 0 {
		return
	}
	if r.granted == 0 {
		// The sender transmits one BDP unscheduled (paper's Homa); only
		// bytes beyond that need grants.
		r.granted = int64(r.env.BDPBytes)
		if r.granted > total {
			r.granted = total
		}
	}
	if r.granted >= total {
		return
	}
	// Keep one BDP of granted-but-unreceived data in flight.
	target := r.rcvNxt + int64(r.env.BDPBytes)
	if target > total {
		target = total
	}
	if target <= r.granted {
		return
	}
	r.granted = target
	prio := 0
	if r.grantPrios != nil {
		prio = r.grantPrios(total - r.rcvNxt)
	}
	grant := r.env.newPacket(r.flow, false)
	grant.IsAck = true
	grant.IsGrant = true
	grant.AckSeq = r.rcvNxt
	grant.GrantseqG = target
	grant.GrantPrio = prio
	grant.Size = netsim.HeaderBytes // Priority stays 0: grants ride the highest band
	grant.EchoTS = data.SentAt
	r.env.Inject(grant)
}

// Host demultiplexes packets arriving at one simulated host to its flow
// endpoints.
type Host struct {
	ID        int
	senders   map[uint64]Sender
	receivers map[uint64]*Receiver

	env     *Env
	newRecv func(flow *Flow) *Receiver
}

// NewHost creates a host-side demultiplexer. newRecv builds receive
// endpoints on demand for flows addressed to this host; it may be nil if
// the host only sends.
func NewHost(id int, env *Env, newRecv func(flow *Flow) *Receiver) *Host {
	return &Host{
		ID:        id,
		senders:   make(map[uint64]Sender),
		receivers: make(map[uint64]*Receiver),
		env:       env,
		newRecv:   newRecv,
	}
}

// AddSender registers the send side of a flow originating here.
func (h *Host) AddSender(flowID uint64, s Sender) { h.senders[flowID] = s }

// Receive dispatches an arriving packet.
func (h *Host) Receive(pkt *netsim.Packet) {
	if pkt.IsAck {
		if s, ok := h.senders[pkt.FlowID]; ok {
			s.HandleAck(pkt)
		}
		return
	}
	r, ok := h.receivers[pkt.FlowID]
	if !ok {
		if h.newRecv == nil {
			return
		}
		r = h.newRecv(&Flow{
			ID: pkt.FlowID, Src: pkt.Src, Dst: pkt.Dst,
			Bytes: pkt.FlowBytes, Hash: pkt.Hash,
		})
		h.receivers[pkt.FlowID] = r
	}
	r.HandleData(pkt)
}
