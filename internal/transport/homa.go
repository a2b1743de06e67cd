package transport

import (
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
)

// homaBands is the number of switch priority bands the Homa-like
// transport uses: band 0 carries grants and the shortest messages, higher
// bands carry progressively longer messages (SRPT approximation).
const homaBands = 8

// homaRetxTimeout is the progress timeout after which the sender
// retransmits from the acknowledged prefix.
const homaRetxTimeout = 30 * sim.Millisecond

// HomaPriority maps remaining message bytes to a priority band, smaller
// messages first. bdp anchors the scale.
func HomaPriority(remaining int64, bdp int) int {
	if bdp <= 0 {
		bdp = netsim.MSS
	}
	unit := int64(bdp) / 2
	if unit <= 0 {
		unit = 1
	}
	prio := 1
	for size := unit; remaining > size && prio < homaBands-1; size *= 4 {
		prio++
	}
	return prio
}

// homaSender is a receiver-driven message sender: it blasts one BDP of
// unscheduled data immediately and sends the rest only as the receiver
// grants it. Data packets carry priorities so switches can run SRPT-like
// scheduling; this deliberately reorders packets across messages, the
// property that stresses MimicNet's models (paper §9.4.2).
type homaSender struct {
	env  *Env
	flow *Flow

	sent    int64 // bytes transmitted at least once
	acked   int64 // contiguous prefix acknowledged
	granted int64 // limit authorized by the receiver
	prio    int   // current priority for scheduled data

	retxTimer sim.Timer
	lastAcked int64
	done      bool
}

// newHomaSender builds a Homa-like sender.
func newHomaSender(env *Env, flow *Flow) *homaSender {
	h := &homaSender{env: env, flow: flow}
	h.retxTimer.Init(env.Sim, homaRetxExpired, h, 0)
	return h
}

func homaRetxExpired(p any, _ int64) { p.(*homaSender).onRetxTimeout() }

// Start transmits the unscheduled window.
func (h *homaSender) Start() {
	unsched := int64(h.env.BDPBytes)
	if unsched > h.flow.Bytes {
		unsched = h.flow.Bytes
	}
	h.granted = unsched
	h.prio = HomaPriority(h.flow.Bytes, h.env.BDPBytes)
	h.sendUpTo(h.granted)
	h.armRetx()
}

func (h *homaSender) sendUpTo(limit int64) {
	for h.sent < limit {
		payload := h.env.MSS
		if remaining := limit - h.sent; remaining < int64(payload) {
			payload = int(remaining)
		}
		h.sendSegment(h.sent, payload)
		h.sent += int64(payload)
	}
}

func (h *homaSender) sendSegment(seq int64, payload int) {
	pkt := h.env.newPacket(h.flow, true)
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Size = payload + netsim.HeaderBytes
	pkt.Priority = h.prio
	pkt.FlowBytes = h.flow.Bytes
	h.env.Inject(pkt)
}

// HandleAck processes acknowledgements and grants from the receiver.
func (h *homaSender) HandleAck(pkt *netsim.Packet) {
	if h.done {
		return
	}
	if pkt.AckSeq > h.acked {
		h.acked = pkt.AckSeq
		if h.env.OnRTT != nil && pkt.EchoTS > 0 {
			if rtt := h.env.Sim.Now() - pkt.EchoTS; rtt > 0 {
				h.env.OnRTT(h.flow, rtt.Seconds())
			}
		}
	}
	if h.acked >= h.flow.Bytes {
		h.complete()
		return
	}
	if pkt.IsGrant && pkt.GrantseqG > h.granted {
		h.granted = pkt.GrantseqG
		h.prio = pkt.GrantPrio
		if h.prio < 1 {
			h.prio = 1
		}
		h.sendUpTo(h.granted)
	}
	h.armRetx()
}

func (h *homaSender) armRetx() {
	if h.done {
		h.retxTimer.Stop()
		return
	}
	h.lastAcked = h.acked
	h.retxTimer.Reset(homaRetxTimeout)
}

func (h *homaSender) onRetxTimeout() {
	if h.done {
		return
	}
	if h.acked == h.lastAcked {
		// No progress: retransmit the window from the acked prefix.
		h.sent = h.acked
		limit := h.granted
		if max := h.acked + int64(h.env.BDPBytes); limit > max {
			limit = max
		}
		h.sendUpTo(limit)
	}
	h.armRetx()
}

func (h *homaSender) complete() {
	h.done = true
	h.retxTimer.Stop()
	if h.env.OnComplete != nil {
		h.env.OnComplete(h.flow)
	}
}
