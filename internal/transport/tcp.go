package transport

import (
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
)

// RTO bounds. Data center simulations conventionally shrink the
// minimum RTO well below the WAN-era 1 s to avoid pathological stalls at
// millisecond-scale RTTs.
const (
	initialRTO = 50 * sim.Millisecond
	minRTO     = 10 * sim.Millisecond
	maxRTO     = 2 * sim.Second
)

// CongestionControl is the pluggable policy inside the generic TCP
// sender. Implementations maintain the congestion window in bytes.
type CongestionControl interface {
	// OnAck is invoked for every ACK advancing snd.una. acked is the
	// newly acknowledged byte count; rtt is the sample for this ACK
	// (zero if invalid per Karn's rule); ecnEcho is the ACK's ECN echo.
	OnAck(acked int64, rtt sim.Time, ecnEcho bool)
	// OnDupAckLoss fires on the third duplicate ACK (fast retransmit).
	OnDupAckLoss()
	// OnTimeout fires on an RTO expiry.
	OnTimeout()
	// Window returns the congestion window in bytes.
	Window() float64
}

// TCPSender implements the protocol-independent parts of a TCP-like
// reliable sender: sequencing, cumulative ACK processing, NewReno fast
// retransmit/recovery, and RTO management. Congestion response is
// delegated to a CongestionControl.
type TCPSender struct {
	env  *Env
	flow *Flow
	cc   CongestionControl
	ecn  bool

	sndUna, sndNxt int64
	dupAcks        int
	inRecovery     bool
	recover        int64

	srtt, rttvar sim.Time
	rto          sim.Time
	rtoTimer     sim.Timer
	backoff      uint

	done bool
}

// NewTCPSender builds a sender for flow using the given congestion
// control. ecn controls whether data packets are ECN-capable.
func NewTCPSender(env *Env, flow *Flow, cc CongestionControl, ecn bool) *TCPSender {
	t := &TCPSender{
		env: env, flow: flow, cc: cc, ecn: ecn,
		rto: initialRTO,
	}
	t.rtoTimer.Init(env.Sim, tcpRTOExpired, t, 0)
	return t
}

func tcpRTOExpired(p any, _ int64) { p.(*TCPSender).onRTO() }

// Start begins transmission.
func (t *TCPSender) Start() { t.trySend() }

// Done reports whether every byte has been cumulatively acknowledged.
func (t *TCPSender) Done() bool { return t.done }

func (t *TCPSender) trySend() {
	if t.done {
		return
	}
	wnd := int64(t.cc.Window())
	if wnd < int64(t.env.MSS) {
		wnd = int64(t.env.MSS)
	}
	for t.sndNxt < t.flow.Bytes && t.sndNxt-t.sndUna+int64(t.env.MSS) <= wnd {
		payload := t.env.MSS
		if remaining := t.flow.Bytes - t.sndNxt; remaining < int64(payload) {
			payload = int(remaining)
		}
		t.sendSegment(t.sndNxt, payload)
		t.sndNxt += int64(payload)
	}
	t.armRTO()
}

func (t *TCPSender) sendSegment(seq int64, payload int) {
	pkt := t.env.newPacket(t.flow, true)
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Size = payload + netsim.HeaderBytes
	pkt.ECT = t.ecn
	pkt.FlowBytes = t.flow.Bytes
	t.env.Inject(pkt)
}

// HandleAck processes a cumulative ACK.
func (t *TCPSender) HandleAck(pkt *netsim.Packet) {
	if t.done {
		return
	}
	ack := pkt.AckSeq
	switch {
	case ack > t.sndUna:
		acked := ack - t.sndUna
		rtt := t.rttSample(pkt)
		t.sndUna = ack
		t.dupAcks = 0
		t.backoff = 0
		if t.inRecovery {
			if ack >= t.recover {
				t.inRecovery = false
			} else {
				// NewReno partial ACK: retransmit the next hole without
				// leaving recovery.
				t.sendSegment(t.sndUna, t.segLenAt(t.sndUna))
			}
		}
		t.cc.OnAck(acked, rtt, pkt.ECNEcho)
		if rtt > 0 && t.env.OnRTT != nil {
			t.env.OnRTT(t.flow, rtt.Seconds())
		}
		if t.sndUna >= t.flow.Bytes {
			t.complete()
			return
		}
		t.trySend()
	case ack == t.sndUna && t.sndNxt > t.sndUna:
		t.dupAcks++
		if t.dupAcks == 3 && !t.inRecovery {
			t.inRecovery = true
			t.recover = t.sndNxt
			t.cc.OnDupAckLoss()
			t.sendSegment(t.sndUna, t.segLenAt(t.sndUna))
			t.armRTO()
		}
	}
}

func (t *TCPSender) segLenAt(seq int64) int {
	payload := int64(t.env.MSS)
	if remaining := t.flow.Bytes - seq; remaining < payload {
		payload = remaining
	}
	return int(payload)
}

func (t *TCPSender) rttSample(pkt *netsim.Packet) sim.Time {
	if pkt.EchoTS == 0 {
		return 0
	}
	// The receiver echoes the data packet's transmit timestamp (RFC
	// 7323-style), so samples are valid even across retransmissions and
	// Karn's rule is unnecessary.
	rtt := t.env.Sim.Now() - pkt.EchoTS
	if rtt <= 0 {
		return 0
	}
	t.updateRTO(rtt)
	return rtt
}

func (t *TCPSender) updateRTO(rtt sim.Time) {
	if t.srtt == 0 {
		t.srtt = rtt
		t.rttvar = rtt / 2
	} else {
		diff := t.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		t.rttvar = (3*t.rttvar + diff) / 4
		t.srtt = (7*t.srtt + rtt) / 8
	}
	t.rto = t.srtt + 4*t.rttvar
	if t.rto < minRTO {
		t.rto = minRTO
	}
	if t.rto > maxRTO {
		t.rto = maxRTO
	}
}

func (t *TCPSender) armRTO() {
	if t.sndUna >= t.flow.Bytes || t.sndNxt == t.sndUna {
		t.rtoTimer.Stop()
		return
	}
	timeout := t.rto << t.backoff
	if timeout > maxRTO {
		timeout = maxRTO
	}
	t.rtoTimer.Reset(timeout)
}

func (t *TCPSender) onRTO() {
	if t.done || t.sndUna >= t.flow.Bytes {
		return
	}
	t.backoff++
	if t.backoff > 6 {
		t.backoff = 6
	}
	t.inRecovery = false
	t.dupAcks = 0
	t.cc.OnTimeout()
	// Go-back-N from the hole.
	t.sndNxt = t.sndUna
	t.sendSegment(t.sndUna, t.segLenAt(t.sndUna))
	t.sndNxt = t.sndUna + int64(t.segLenAt(t.sndUna))
	t.armRTO()
}

func (t *TCPSender) complete() {
	t.done = true
	t.rtoTimer.Stop()
	if t.env.OnComplete != nil {
		t.env.OnComplete(t.flow)
	}
}
