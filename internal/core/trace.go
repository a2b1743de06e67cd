package core

import (
	"mimicnet/internal/cluster"
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
	"mimicnet/internal/topo"
)

// TraceRecord is one external packet observed crossing the modeled
// cluster's boundary during the small-scale simulation, matched between
// entry and exit (paper §5.1: "matches the packets entering and leaving
// the network using identifiers from the packets").
type TraceRecord struct {
	PktID uint64
	Dir   Direction
	Info  PacketInfo

	Entry   sim.Time
	Exit    sim.Time // zero until matched
	Dropped bool
	Matched bool // exit or drop observed
	CEOut   bool // CE bit when leaving the cluster
}

// Latency returns the in-cluster latency in seconds (only meaningful for
// matched, non-dropped records).
func (r *TraceRecord) Latency() float64 { return (r.Exit - r.Entry).Seconds() }

// Tracer instruments a full-fidelity simulation to dump the packets
// entering and leaving one modeled cluster. In a FatTree this amounts to
// tapping the Core-facing and Host-facing interfaces (paper §5.1).
type Tracer struct {
	Topo    *topo.Topology
	Cluster int // the to-be-modeled cluster

	pending map[uint64]*TraceRecord
	records []*TraceRecord
}

// NewTracer creates a tracer for the given cluster.
func NewTracer(t *topo.Topology, modeled int) *Tracer {
	return &Tracer{Topo: t, Cluster: modeled, pending: make(map[uint64]*TraceRecord)}
}

// Attach wires the tracer into a simulation's fabric taps. It must be
// called before the simulation runs; it chains any existing taps.
func (tr *Tracer) Attach(inst *cluster.Simulation) {
	prevArrive := inst.Fabric.Taps.OnArrive
	prevSend := inst.Fabric.Taps.OnSend
	prevDrop := inst.Fabric.Taps.OnDrop
	inst.Fabric.Taps.OnArrive = func(node int, pkt *netsim.Packet, at sim.Time) {
		tr.onArrive(node, pkt, at)
		if prevArrive != nil {
			prevArrive(node, pkt, at)
		}
	}
	inst.Fabric.Taps.OnSend = func(from, to int, pkt *netsim.Packet, at sim.Time) {
		tr.onSend(from, to, pkt, at)
		if prevSend != nil {
			prevSend(from, to, pkt, at)
		}
	}
	inst.Fabric.Taps.OnDrop = func(from, to int, pkt *netsim.Packet, at sim.Time) {
		tr.onDrop(from, to, pkt, at)
		if prevDrop != nil {
			prevDrop(from, to, pkt, at)
		}
	}
}

// buildPacketInfo extracts the scalable packet description relative to a
// modeled cluster. local is the in-cluster endpoint (source for egress,
// destination for ingress). All resulting fields keep their value, range,
// and semantics regardless of cluster count (Table 1).
func buildPacketInfo(t *topo.Topology, modeled int, pkt *netsim.Packet, local int, at sim.Time) PacketInfo {
	agg, core := 0, 0
	for _, node := range pkt.Path {
		switch t.KindOf(node) {
		case topo.KindAgg:
			if t.ClusterOf(node) == modeled {
				agg = t.AggIndexOf(node)
			}
		case topo.KindCore:
			core = t.AggIndexOf(node)*t.Config().CoresPerAgg + t.CoreSlotOf(node)
		}
	}
	return PacketInfo{
		LocalRack:   t.RackOf(local),
		LocalServer: t.SlotOf(local),
		LocalAgg:    agg,
		Core:        core,
		SizeBytes:   pkt.Size,
		IsAck:       pkt.IsAck,
		ECT:         pkt.ECT,
		CEIn:        pkt.CE,
		Priority:    pkt.Priority,
		ArrivalTime: at,
	}
}

func (tr *Tracer) info(pkt *netsim.Packet, local int, at sim.Time) PacketInfo {
	return buildPacketInfo(tr.Topo, tr.Cluster, pkt, local, at)
}

func (tr *Tracer) isExternal(pkt *netsim.Packet) (Direction, bool) {
	srcIn := tr.Topo.ClusterOf(pkt.Src) == tr.Cluster
	dstIn := tr.Topo.ClusterOf(pkt.Dst) == tr.Cluster
	switch {
	case srcIn && !dstIn:
		return Egress, true
	case !srcIn && dstIn:
		return Ingress, true
	default:
		return 0, false // internal or unrelated traffic is not traced
	}
}

func (tr *Tracer) onSend(from, to int, pkt *netsim.Packet, at sim.Time) {
	// Egress entry: the in-cluster host offers the packet to its NIC.
	if tr.Topo.KindOf(from) != topo.KindHost || tr.Topo.ClusterOf(from) != tr.Cluster {
		return
	}
	if dir, ok := tr.isExternal(pkt); !ok || dir != Egress {
		return
	}
	rec := &TraceRecord{
		PktID: pkt.ID, Dir: Egress,
		Info:  tr.info(pkt, pkt.Src, at),
		Entry: at,
	}
	tr.pending[pkt.ID] = rec
	tr.records = append(tr.records, rec)
}

func (tr *Tracer) onArrive(node int, pkt *netsim.Packet, at sim.Time) {
	t := tr.Topo
	switch t.KindOf(node) {
	case topo.KindAgg:
		// Ingress entry: packet lands on the modeled cluster's agg coming
		// down from a core switch.
		if t.ClusterOf(node) != tr.Cluster {
			return
		}
		if dir, ok := tr.isExternal(pkt); !ok || dir != Ingress {
			return
		}
		if pkt.Hop < 1 || t.KindOf(pkt.Path[pkt.Hop-1]) != topo.KindCore {
			return
		}
		rec := &TraceRecord{
			PktID: pkt.ID, Dir: Ingress,
			Info:  tr.info(pkt, pkt.Dst, at),
			Entry: at,
		}
		tr.pending[pkt.ID] = rec
		tr.records = append(tr.records, rec)
	case topo.KindCore:
		// Egress exit: the packet reached a core switch from our cluster.
		rec, ok := tr.pending[pkt.ID]
		if !ok || rec.Dir != Egress {
			return
		}
		tr.finish(rec, pkt, at, false)
	case topo.KindHost:
		// Ingress exit: delivery to the in-cluster destination host.
		rec, ok := tr.pending[pkt.ID]
		if !ok || rec.Dir != Ingress || node != pkt.Dst {
			return
		}
		tr.finish(rec, pkt, at, false)
	}
}

func (tr *Tracer) onDrop(from, to int, pkt *netsim.Packet, at sim.Time) {
	rec, ok := tr.pending[pkt.ID]
	if !ok {
		return
	}
	// Only drops inside the modeled cluster's network count: for egress,
	// between the host and the core; for ingress, between the agg and the
	// host. Drops at core output ports happen outside the cluster.
	if tr.Topo.KindOf(from) == topo.KindCore {
		return
	}
	tr.finish(rec, pkt, at, true)
}

func (tr *Tracer) finish(rec *TraceRecord, pkt *netsim.Packet, at sim.Time, dropped bool) {
	rec.Exit = at
	rec.Dropped = dropped
	rec.Matched = true
	rec.CEOut = pkt.CE
	delete(tr.pending, rec.PktID)
}

// Records returns matched records in entry order — the order the Mimic
// model will see packets at inference time. Unmatched (still in flight)
// records are excluded.
func (tr *Tracer) Records() []*TraceRecord {
	out := make([]*TraceRecord, 0, len(tr.records))
	for _, r := range tr.records {
		if r.Matched {
			out = append(out, r)
		}
	}
	return out
}

// ByDirection splits matched records by direction, preserving entry order.
func (tr *Tracer) ByDirection() (ingress, egress []*TraceRecord) {
	return splitTrace(tr.Records())
}

// PendingCount returns packets that entered but neither exited nor
// dropped by the end of the run (still in flight).
func (tr *Tracer) PendingCount() int { return len(tr.pending) }
