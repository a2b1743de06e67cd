package transport

import (
	"testing"

	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

// loop is a two-endpoint test harness: a sender and a receiver joined by
// a fixed-delay channel with optional per-packet drop and ECN marking.
type loop struct {
	s      *sim.Simulator
	env    *Env
	flow   *Flow
	sender Sender
	recv   *Receiver

	oneWay   sim.Time
	drop     func(pkt *netsim.Packet) bool
	mark     func(pkt *netsim.Packet) bool
	sent     int
	dropped  int
	done     bool
	rttSeen  []float64
	deliverd int64
}

func newLoop(proto Protocol, bytes int64, oneWay sim.Time) *loop {
	l := &loop{s: sim.New(), oneWay: oneWay}
	l.env = &Env{
		Sim:      l.s,
		Packets:  &netsim.PacketPool{},
		MSS:      netsim.MSS,
		BDPBytes: 4 * netsim.MSS,
	}
	l.env.OnComplete = func(f *Flow) { l.done = true }
	l.env.OnRTT = func(f *Flow, sec float64) { l.rttSeen = append(l.rttSeen, sec) }
	l.env.Inject = func(pkt *netsim.Packet) {
		l.sent++
		if l.drop != nil && l.drop(pkt) {
			l.dropped++
			return
		}
		if l.mark != nil && pkt.ECT && l.mark(pkt) {
			pkt.CE = true
		}
		l.s.After(l.oneWay, func() {
			if pkt.IsAck {
				l.sender.HandleAck(pkt)
			} else {
				l.recv.HandleData(pkt)
			}
		})
	}
	l.flow = &Flow{ID: 1, Src: 0, Dst: 1, Bytes: bytes, Hash: 42}
	l.recv = NewReceiver(l.env, l.flow)
	l.recv.OnDeliver = func(n int64) { l.deliverd += n }
	if IsHoma(proto) {
		l.recv.EnableGranting(func(remaining int64) int {
			return HomaPriority(remaining, l.env.BDPBytes)
		})
	}
	l.sender = proto.NewSender(l.env, l.flow)
	return l
}

func (l *loop) run(t *testing.T, limit sim.Time) {
	t.Helper()
	l.s.At(0, l.sender.Start)
	l.s.RunUntil(limit)
}

func TestTCPTransfersCleanChannel(t *testing.T) {
	for _, name := range []string{"newreno", "dctcp", "vegas", "westwood"} {
		proto, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		l := newLoop(proto, 100_000, sim.Millisecond)
		l.run(t, 10*sim.Second)
		if !l.done {
			t.Errorf("%s: transfer did not complete", name)
		}
		if !l.sender.Done() {
			t.Errorf("%s: sender.Done() false after completion", name)
		}
		if l.deliverd != 100_000 {
			t.Errorf("%s: delivered %d bytes, want 100000", name, l.deliverd)
		}
		if len(l.rttSeen) == 0 {
			t.Errorf("%s: no RTT samples", name)
		}
		for _, r := range l.rttSeen {
			if r < 0.002-1e-9 {
				t.Errorf("%s: RTT %v below channel RTT", name, r)
			}
		}
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	for _, name := range []string{"newreno", "dctcp", "vegas", "westwood"} {
		proto, _ := ByName(name)
		l := newLoop(proto, 200_000, sim.Millisecond)
		rng := stats.NewStream(7)
		l.drop = func(pkt *netsim.Packet) bool {
			return !pkt.IsAck && rng.Float64() < 0.05
		}
		l.run(t, 60*sim.Second)
		if !l.done {
			t.Errorf("%s: transfer did not complete under 5%% loss", name)
		}
		if l.dropped == 0 {
			t.Errorf("%s: test did not exercise loss", name)
		}
	}
}

func TestTCPRecoversFromBurstLoss(t *testing.T) {
	// Drop an entire early window to force an RTO (dup ACKs unavailable).
	proto, _ := ByName("newreno")
	l := newLoop(proto, 50_000, sim.Millisecond)
	n := 0
	l.drop = func(pkt *netsim.Packet) bool {
		if pkt.IsAck {
			return false
		}
		n++
		return n <= 10
	}
	l.run(t, 30*sim.Second)
	if !l.done {
		t.Fatal("transfer did not recover from burst loss")
	}
}

func TestRenoSlowStartAndAIMD(t *testing.T) {
	r := NewReno(1000, 10)
	w0 := r.Window()
	r.OnAck(1000, sim.Millisecond, false)
	if r.Window() != w0+1000 {
		t.Errorf("slow start: %v -> %v, want +1000", w0, r.Window())
	}
	r.OnDupAckLoss()
	wLoss := r.Window()
	if wLoss != (w0+1000)/2 {
		t.Errorf("halving: got %v, want %v", wLoss, (w0+1000)/2)
	}
	// Now in congestion avoidance: growth ~ mss*acked/cwnd.
	r.OnAck(1000, sim.Millisecond, false)
	want := wLoss + 1000*1000/wLoss
	if r.Window() != want {
		t.Errorf("CA growth: got %v, want %v", r.Window(), want)
	}
	r.OnTimeout()
	if r.Window() != 1000 {
		t.Errorf("timeout: window %v, want 1 MSS", r.Window())
	}
}

func TestRenoFloors(t *testing.T) {
	r := NewReno(1000, 1)
	for i := 0; i < 10; i++ {
		r.OnDupAckLoss()
	}
	if r.Window() < 2000 {
		t.Errorf("window %v below 2 MSS floor", r.Window())
	}
}

func TestDCTCPAlphaTracksMarks(t *testing.T) {
	d := NewDCTCP(1000, 10)
	// Fully marked windows should push alpha toward 1 and shrink cwnd.
	for i := 0; i < 200; i++ {
		d.OnAck(10_000, sim.Millisecond, true)
	}
	if d.Alpha() < 0.9 {
		t.Errorf("alpha = %v after persistent marking, want > 0.9", d.Alpha())
	}
	if d.Window() > 5000 {
		t.Errorf("window = %v under persistent marking, want small", d.Window())
	}
	// Mark-free windows decay alpha.
	for i := 0; i < 400; i++ {
		d.OnAck(10_000, sim.Millisecond, false)
	}
	if d.Alpha() > 0.1 {
		t.Errorf("alpha = %v after mark-free period, want < 0.1", d.Alpha())
	}
}

func TestDCTCPMildMarkingGentlerThanReno(t *testing.T) {
	// DCTCP's whole point: a lightly marked window cuts cwnd by α/2, far
	// less than Reno's halving.
	d := NewDCTCP(1000, 100)
	start := d.Window()
	// One window with 10% marks.
	for i := 0; i < 9; i++ {
		d.OnAck(10_000, sim.Millisecond, false)
	}
	d.OnAck(10_000, sim.Millisecond, true)
	for i := 0; i < 10; i++ {
		d.OnAck(10_000, sim.Millisecond, false)
	}
	if d.Window() < start*0.7 {
		t.Errorf("mild marking cut window %v -> %v; too aggressive", start, d.Window())
	}
}

func TestVegasAdjustments(t *testing.T) {
	v := NewVegas(1000, 10)
	v.ssthresh = 0 // force congestion avoidance
	// Feed a full epoch with RTT == baseRTT: diff = 0 < alpha ⇒ +1 MSS.
	base := 10 * sim.Millisecond
	v.OnAck(1000, base, false) // seeds baseRTT, closes first epoch (nextAdj=0)
	w := v.Window()
	total := int64(0)
	for total < int64(v.Window()) {
		v.OnAck(10000, base, false)
		total += 10000
	}
	if v.Window() <= w {
		t.Errorf("no-queueing epoch should grow window: %v -> %v", w, v.Window())
	}
	if v.baseRTT != base {
		t.Errorf("baseRTT = %v, want %v", v.baseRTT, base)
	}
	// Now feed heavily inflated RTTs: diff large ⇒ shrink.
	w = v.Window()
	for i := 0; i < 100; i++ {
		v.OnAck(int64(v.Window()), 10*base, false)
	}
	if v.Window() >= w {
		t.Errorf("queueing epochs should shrink window: %v -> %v", w, v.Window())
	}
}

func TestWestwoodBandwidthEstimate(t *testing.T) {
	var now sim.Time
	w := NewWestwood(1000, 10, func() sim.Time { return now })
	// 1000 bytes every ms = 1 MB/s.
	for i := 0; i < 100; i++ {
		now += sim.Millisecond
		w.OnAck(1000, 10*sim.Millisecond, false)
	}
	if w.bwe < 0.5e6 || w.bwe > 1.5e6 {
		t.Errorf("BWE = %v, want ~1e6 B/s", w.bwe)
	}
	// On loss, ssthresh should be ~BWE*RTTmin = 1e6 * 0.01 = 10000 bytes.
	w.OnDupAckLoss()
	if w.Window() < 5000 || w.Window() > 20000 {
		t.Errorf("post-loss window = %v, want ~10000", w.Window())
	}
	w.OnTimeout()
	if w.Window() != 1000 {
		t.Errorf("post-timeout window = %v, want 1 MSS", w.Window())
	}
}

func TestWestwoodFallsBackWithoutEstimate(t *testing.T) {
	var now sim.Time
	w := NewWestwood(1000, 10, func() sim.Time { return now })
	w.OnDupAckLoss() // no BWE yet: Reno behavior
	if w.Window() != 5000 {
		t.Errorf("fallback halving: %v, want 5000", w.Window())
	}
}

func TestReceiverInOrder(t *testing.T) {
	env := &Env{Sim: sim.New(), Packets: &netsim.PacketPool{}, MSS: 100, Inject: func(*netsim.Packet) {}}
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 300}
	r := NewReceiver(env, flow)
	var delivered int64
	r.OnDeliver = func(n int64) { delivered += n }
	for seq := int64(0); seq < 300; seq += 100 {
		r.HandleData(&netsim.Packet{Seq: seq, Payload: 100, FlowBytes: 300})
	}
	if r.rcvNxt != 300 || !r.Complete() || delivered != 300 {
		t.Errorf("rcvNxt=%d complete=%v delivered=%d", r.rcvNxt, r.Complete(), delivered)
	}
}

func TestReceiverOutOfOrderCoalescing(t *testing.T) {
	var acks []int64
	env := &Env{Sim: sim.New(), Packets: &netsim.PacketPool{}, MSS: 100, Inject: func(p *netsim.Packet) {
		if p.IsAck {
			acks = append(acks, p.AckSeq)
		}
	}}
	flow := &Flow{ID: 1, Bytes: 400}
	r := NewReceiver(env, flow)
	r.HandleData(&netsim.Packet{Seq: 200, Payload: 100, FlowBytes: 400})
	if r.rcvNxt != 0 {
		t.Errorf("ooo data advanced rcvNxt to %d", r.rcvNxt)
	}
	r.HandleData(&netsim.Packet{Seq: 100, Payload: 100, FlowBytes: 400})
	r.HandleData(&netsim.Packet{Seq: 0, Payload: 100, FlowBytes: 400})
	if r.rcvNxt != 300 {
		t.Errorf("coalescing failed: rcvNxt=%d, want 300", r.rcvNxt)
	}
	// Duplicate ACK pattern: first two ACKs are 0 (dup), third jumps to 300.
	if len(acks) != 3 || acks[0] != 0 || acks[1] != 0 || acks[2] != 300 {
		t.Errorf("acks = %v, want [0 0 300]", acks)
	}
	r.HandleData(&netsim.Packet{Seq: 300, Payload: 100, FlowBytes: 400})
	if !r.Complete() {
		t.Error("not complete after all segments")
	}
}

func TestReceiverDuplicateDataIgnored(t *testing.T) {
	env := &Env{Sim: sim.New(), Packets: &netsim.PacketPool{}, MSS: 100, Inject: func(*netsim.Packet) {}}
	r := NewReceiver(env, &Flow{Bytes: 200})
	var delivered int64
	r.OnDeliver = func(n int64) { delivered += n }
	pkt := &netsim.Packet{Seq: 0, Payload: 100, FlowBytes: 200}
	r.HandleData(pkt)
	r.HandleData(pkt) // duplicate
	if delivered != 100 {
		t.Errorf("delivered %d, want 100 (duplicate must not double-count)", delivered)
	}
}

func TestReceiverEchoesECN(t *testing.T) {
	var lastAck *netsim.Packet
	env := &Env{Sim: sim.New(), Packets: &netsim.PacketPool{}, MSS: 100, Inject: func(p *netsim.Packet) { lastAck = p }}
	r := NewReceiver(env, &Flow{Bytes: 200})
	r.HandleData(&netsim.Packet{Seq: 0, Payload: 100, CE: true, FlowBytes: 200, SentAt: 5})
	if lastAck == nil || !lastAck.ECNEcho {
		t.Error("CE not echoed in ACK")
	}
	if lastAck.EchoTS != 5 {
		t.Errorf("EchoTS = %v, want 5", lastAck.EchoTS)
	}
	r.HandleData(&netsim.Packet{Seq: 100, Payload: 100, CE: false, FlowBytes: 200})
	if lastAck.ECNEcho {
		t.Error("ECN echo set for unmarked packet")
	}
}

func TestHomaTransfers(t *testing.T) {
	proto, _ := ByName("homa")
	l := newLoop(proto, 500_000, sim.Millisecond)
	l.run(t, 30*sim.Second)
	if !l.done || !l.sender.Done() {
		t.Fatal("homa transfer did not complete")
	}
	if l.deliverd != 500_000 {
		t.Errorf("delivered %d", l.deliverd)
	}
}

func TestHomaSmallMessageIsUnscheduled(t *testing.T) {
	proto, _ := ByName("homa")
	l := newLoop(proto, 1000, sim.Millisecond) // < BDP: purely unscheduled
	grants := 0
	origInject := l.env.Inject
	l.env.Inject = func(pkt *netsim.Packet) {
		if pkt.IsGrant {
			grants++
		}
		origInject(pkt)
	}
	l.run(t, sim.Second)
	if !l.done {
		t.Fatal("small homa message incomplete")
	}
	if grants != 0 {
		t.Errorf("small message triggered %d grants, want 0", grants)
	}
}

func TestHomaRecoverFromLoss(t *testing.T) {
	proto, _ := ByName("homa")
	l := newLoop(proto, 300_000, sim.Millisecond)
	rng := stats.NewStream(3)
	l.drop = func(pkt *netsim.Packet) bool {
		return !pkt.IsAck && rng.Float64() < 0.05
	}
	l.run(t, 60*sim.Second)
	if !l.done {
		t.Fatal("homa did not recover from loss")
	}
}

func TestHomaPriorityMonotone(t *testing.T) {
	bdp := 4 * netsim.MSS
	last := 0
	for _, size := range []int64{100, 1000, 10_000, 100_000, 1_000_000, 10_000_000} {
		p := HomaPriority(size, bdp)
		if p < last {
			t.Errorf("priority not monotone: size %d -> %d < %d", size, p, last)
		}
		if p < 1 || p >= HomaBands {
			t.Errorf("priority %d out of range for size %d", p, size)
		}
		last = p
	}
	if HomaPriority(100, 0) < 1 {
		t.Error("zero BDP should not break priority mapping")
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, n := range Names() {
		p, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if p.Name() != n {
			t.Errorf("Name() = %q, want %q", p.Name(), n)
		}
		if p.QueueBands() < 1 {
			t.Errorf("%s: bands = %d", n, p.QueueBands())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
	if p, _ := ByName("tcp"); p.Name() != "newreno" {
		t.Error("tcp alias broken")
	}
	dctcp, _ := ByName("dctcp")
	if !dctcp.UsesECN() {
		t.Error("dctcp should use ECN")
	}
	homa, _ := ByName("homa")
	if !IsHoma(homa) || homa.QueueBands() != HomaBands {
		t.Error("homa protocol misconfigured")
	}
}

func TestHostDemux(t *testing.T) {
	env := &Env{Sim: sim.New(), Packets: &netsim.PacketPool{}, MSS: 100, Inject: func(*netsim.Packet) {}}
	h := NewHost(1, env, func(f *Flow) *Receiver { return NewReceiver(env, f) })
	flow := &Flow{ID: 9, Src: 0, Dst: 1, Bytes: 100}
	sender := NewTCPSender(env, flow, NewReno(100, 10), false)
	h.AddSender(9, sender)

	// Data creates a receiver on demand.
	h.Receive(&netsim.Packet{FlowID: 9, Src: 0, Dst: 1, Seq: 0, Payload: 100, FlowBytes: 100})
	if len(h.receivers) != 1 {
		t.Fatalf("receivers = %d", len(h.receivers))
	}
	if !h.receivers[9].Complete() {
		t.Error("receiver incomplete")
	}
	// ACK routed to sender.
	h.Receive(&netsim.Packet{FlowID: 9, IsAck: true, AckSeq: 100})
	if !sender.Done() {
		t.Error("sender did not see ACK")
	}
	// Unknown-flow ACK ignored.
	h.Receive(&netsim.Packet{FlowID: 777, IsAck: true})
	// Data with nil newRecv ignored.
	h2 := NewHost(2, env, nil)
	h2.Receive(&netsim.Packet{FlowID: 1, Payload: 10})
}

func TestTCPSenderRespectsWindow(t *testing.T) {
	var inflight int
	env := &Env{Sim: sim.New(), Packets: &netsim.PacketPool{}, MSS: 1000}
	env.Inject = func(pkt *netsim.Packet) { inflight++ }
	flow := &Flow{ID: 1, Bytes: 1_000_000}
	s := NewTCPSender(env, flow, NewReno(1000, 10), false)
	s.Start()
	if inflight != 10 {
		t.Errorf("initial burst = %d segments, want initWnd=10", inflight)
	}
}
