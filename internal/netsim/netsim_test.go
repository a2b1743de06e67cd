package netsim

import (
	"testing"
	"testing/quick"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
)

func TestDropTail(t *testing.T) {
	q := NewDropTail(2)
	a := &Packet{ID: 1, Size: 100}
	b := &Packet{ID: 2, Size: 200}
	c := &Packet{ID: 3, Size: 300}
	if !q.Enqueue(a) || !q.Enqueue(b) {
		t.Fatal("enqueue under capacity failed")
	}
	if q.Enqueue(c) {
		t.Fatal("enqueue over capacity succeeded")
	}
	if q.Len() != 2 || q.Bytes() != 300 {
		t.Errorf("Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	if got := q.Dequeue(); got != a {
		t.Errorf("FIFO violated: got %v", got)
	}
	if got := q.Dequeue(); got != b {
		t.Errorf("FIFO violated: got %v", got)
	}
	if q.Dequeue() != nil {
		t.Error("empty dequeue should be nil")
	}
	if q.Bytes() != 0 {
		t.Errorf("Bytes=%d after drain", q.Bytes())
	}
}

func TestECNQueueMarksAboveThreshold(t *testing.T) {
	q := NewECNQueue(10, 2)
	for i := 0; i < 2; i++ {
		pkt := &Packet{ECT: true, Size: 100}
		q.Enqueue(pkt)
		if pkt.CE {
			t.Errorf("packet %d marked below threshold", i)
		}
	}
	marked := &Packet{ECT: true, Size: 100}
	q.Enqueue(marked)
	if !marked.CE {
		t.Error("packet at threshold not marked")
	}
	nonECT := &Packet{ECT: false, Size: 100}
	q.Enqueue(nonECT)
	if nonECT.CE {
		t.Error("non-ECT packet marked")
	}
}

func TestPriorityQueueOrdering(t *testing.T) {
	q := NewPriorityQueue(3, 10)
	lo := &Packet{ID: 1, Priority: 2, Size: 1}
	hi := &Packet{ID: 2, Priority: 0, Size: 1}
	mid := &Packet{ID: 3, Priority: 1, Size: 1}
	clamped := &Packet{ID: 4, Priority: 99, Size: 1}
	neg := &Packet{ID: 5, Priority: -1, Size: 1}
	for _, p := range []*Packet{lo, hi, mid, clamped, neg} {
		if !q.Enqueue(p) {
			t.Fatal("enqueue failed")
		}
	}
	wantOrder := []uint64{2, 5, 3, 1, 4} // prio 0: hi, neg; 1: mid; 2: lo, clamped
	for i, want := range wantOrder {
		got := q.Dequeue()
		if got == nil || got.ID != want {
			t.Fatalf("dequeue %d = %v, want ID %d", i, got, want)
		}
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Error("queue not empty after drain")
	}
}

func TestPriorityQueueCapacityShared(t *testing.T) {
	q := NewPriorityQueue(2, 2)
	q.Enqueue(&Packet{Priority: 0, Size: 1})
	q.Enqueue(&Packet{Priority: 1, Size: 1})
	if q.Enqueue(&Packet{Priority: 0, Size: 1}) {
		t.Error("shared capacity not enforced")
	}
}

func TestPriorityQueueZeroBandsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPriorityQueue(0, 1)
}

func TestPortSerializationAndPropagation(t *testing.T) {
	s := sim.New()
	var deliveredAt sim.Time
	// 1000 bytes at 8 Mbps = 1 ms serialization; + 0.5 ms propagation.
	p := NewPort(s, 0, 1, 8e6, 500*sim.Microsecond, NewDropTail(10), func(pkt *Packet) {
		deliveredAt = s.Now()
	})
	p.Send(&Packet{Size: 1000})
	s.Run()
	want := 1500 * sim.Microsecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if p.Delivered != 1 {
		t.Errorf("Delivered = %d", p.Delivered)
	}
}

func TestPortBackToBackSerialization(t *testing.T) {
	s := sim.New()
	var times []sim.Time
	p := NewPort(s, 0, 1, 8e6, 0, NewDropTail(10), func(pkt *Packet) {
		times = append(times, s.Now())
	})
	// Two packets: second must wait for first's serialization.
	p.Send(&Packet{Size: 1000})
	p.Send(&Packet{Size: 1000})
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets", len(times))
	}
	if times[1]-times[0] != 1*sim.Millisecond {
		t.Errorf("spacing = %v, want 1ms", times[1]-times[0])
	}
}

func TestPortDropsWhenQueueFull(t *testing.T) {
	s := sim.New()
	var drops int
	p := NewPort(s, 0, 1, 8e6, 0, NewDropTail(1), func(pkt *Packet) {})
	p.SetDropHook(func(pkt *Packet) { drops++ })
	// First transmits, second queues, third drops.
	p.Send(&Packet{Size: 1000})
	p.Send(&Packet{Size: 1000})
	p.Send(&Packet{Size: 1000})
	if p.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1", p.QueueLen())
	}
	if p.QueueBytes() != 1000 {
		t.Errorf("QueueBytes = %d", p.QueueBytes())
	}
	s.Run()
	if drops != 1 || p.Dropped != 1 {
		t.Errorf("drops = %d / %d, want 1", drops, p.Dropped)
	}
}

func newTestFabric() (*sim.Simulator, *topo.Topology, *Fabric) {
	s := sim.New()
	tp := topo.New(topo.Config{
		Clusters: 2, RacksPerCluster: 2, HostsPerRack: 2,
		AggPerCluster: 2, CoresPerAgg: 1,
	})
	f := NewFabric(s, tp, DefaultLinkConfig())
	return s, tp, f
}

func TestFabricDeliversInterCluster(t *testing.T) {
	s, tp, f := newTestFabric()
	src := tp.HostID(0, 0, 0)
	dst := tp.HostID(1, 1, 1)
	var got *Packet
	var at sim.Time
	f.RegisterHost(dst, func(pkt *Packet) { got = pkt; at = s.Now() })
	path := tp.Path(src, dst, 5)
	f.Inject(&Packet{ID: 1, Src: src, Dst: dst, Size: 1000, Path: path})
	s.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// 6 links * (80 µs serialization @100Mbps + 500 µs prop).
	wantSer := sim.Time(float64(1000*8) / 100e6 * float64(sim.Second))
	want := 6 * (wantSer + 500*sim.Microsecond)
	if at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	if f.Delivered() != 1 || f.Injected() != 1 {
		t.Errorf("counters: injected=%d delivered=%d", f.Injected(), f.Delivered())
	}
}

func TestFabricLoopback(t *testing.T) {
	s, tp, f := newTestFabric()
	h := tp.HostID(0, 0, 0)
	delivered := false
	f.RegisterHost(h, func(pkt *Packet) { delivered = true })
	f.Inject(&Packet{Src: h, Dst: h, Size: 100, Path: []int{h}})
	s.Run()
	if !delivered {
		t.Error("loopback packet not delivered")
	}
}

func TestFabricTaps(t *testing.T) {
	s, tp, f := newTestFabric()
	src := tp.HostID(0, 0, 0)
	dst := tp.HostID(1, 0, 0)
	var sends, arrives int
	f.Taps.OnSend = func(from, to int, pkt *Packet, at sim.Time) { sends++ }
	f.Taps.OnArrive = func(node int, pkt *Packet, at sim.Time) { arrives++ }
	f.RegisterHost(dst, func(pkt *Packet) {})
	path := tp.Path(src, dst, 0)
	f.Inject(&Packet{Src: src, Dst: dst, Size: 100, Path: path})
	s.Run()
	wantHops := len(path) - 1
	if sends != wantHops {
		t.Errorf("OnSend fired %d times, want %d", sends, wantHops)
	}
	if arrives != wantHops {
		t.Errorf("OnArrive fired %d times, want %d", arrives, wantHops)
	}
}

func TestFabricDropTap(t *testing.T) {
	s := sim.New()
	tp := topo.New(topo.Config{
		Clusters: 1, RacksPerCluster: 1, HostsPerRack: 3,
		AggPerCluster: 1, CoresPerAgg: 1,
	})
	link := DefaultLinkConfig()
	link.SwitchQueue = DropTailFactory(1)
	f := NewFabric(s, tp, link)
	dst := tp.HostID(0, 0, 2)
	var drops int
	f.Taps.OnDrop = func(from, to int, pkt *Packet, at sim.Time) { drops++ }
	f.RegisterHost(dst, func(pkt *Packet) {})
	// Fan-in: two senders to one host through the shared ToR port.
	for _, src := range []int{tp.HostID(0, 0, 0), tp.HostID(0, 0, 1)} {
		for i := 0; i < 20; i++ {
			f.Inject(&Packet{Src: src, Dst: dst, Size: MTU, Path: tp.Path(src, dst, 0)})
		}
	}
	s.Run()
	if drops == 0 || f.Drops() == 0 {
		t.Error("expected fan-in drops with tiny queue")
	}
	if f.Delivered()+f.Drops() != f.Injected() {
		t.Errorf("conservation violated: %d delivered + %d dropped != %d injected",
			f.Delivered(), f.Drops(), f.Injected())
	}
}

func TestFabricPanicsOnBadPath(t *testing.T) {
	_, tp, f := newTestFabric()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for path not starting at src")
		}
	}()
	f.Inject(&Packet{Src: tp.HostID(0, 0, 0), Dst: 1, Path: []int{99}})
}

func TestFabricRequiresQueueFactory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic without queue factory")
		}
	}()
	NewFabric(sim.New(), topo.New(topo.DefaultConfig()), LinkConfig{RateBps: 1e6})
}

// Property: every injected packet is either delivered or dropped —
// conservation under arbitrary fan-in load.
func TestPacketConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		s := sim.New()
		tp := topo.New(topo.Config{
			Clusters: 2, RacksPerCluster: 1, HostsPerRack: 2,
			AggPerCluster: 1, CoresPerAgg: 1,
		})
		link := DefaultLinkConfig()
		link.SwitchQueue = DropTailFactory(3)
		fab := NewFabric(s, tp, link)
		for h := 0; h < tp.Hosts(); h++ {
			fab.RegisterHost(h, func(pkt *Packet) {})
		}
		rng := seed
		next := func() int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(tp.Hosts()))
			if v < 0 {
				v = -v
			}
			return v
		}
		for i := 0; i < n; i++ {
			src, dst := next(), next()
			if src == dst {
				continue
			}
			fab.Inject(&Packet{
				Src: src, Dst: dst, Size: MTU,
				Path: tp.Path(src, dst, uint64(i)),
			})
		}
		s.Run()
		return fab.Delivered()+fab.Drops() == fab.Injected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 7, FlowID: 3, Src: 1, Dst: 2, Seq: 100, Payload: 50}
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
	ack := &Packet{IsAck: true}
	if s := ack.String(); s == "" || s[4:7] != "0 a" {
		t.Errorf("ack String() = %q", s)
	}
	grant := &Packet{IsGrant: true}
	_ = grant.String()
}

func TestNextNode(t *testing.T) {
	p := &Packet{Path: []int{1, 2, 3}, Hop: 0}
	if p.NextNode() != 2 {
		t.Error("NextNode wrong")
	}
	p.Hop = 2
	if p.NextNode() != -1 {
		t.Error("NextNode at end should be -1")
	}
}

// Property: packets of the same flow (same path, same priority) are
// delivered in injection order — FIFO queues must never reorder a flow.
func TestPerFlowFIFOOrderingProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 2
		s := sim.New()
		tp := topo.New(topo.Config{
			Clusters: 2, RacksPerCluster: 2, HostsPerRack: 2,
			AggPerCluster: 2, CoresPerAgg: 1,
		})
		fab := NewFabric(s, tp, DefaultLinkConfig())
		src, dst := tp.HostID(0, 0, 0), tp.HostID(1, 1, 1)
		var got []uint64
		fab.RegisterHost(dst, func(pkt *Packet) { got = append(got, pkt.ID) })
		path := tp.Path(src, dst, uint64(seed))
		rng := stats.NewStream(seed)
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			i := i
			at += sim.Time(rng.Intn(200)) * sim.Microsecond
			s.At(at, func() {
				fab.Inject(&Packet{
					ID: uint64(i), Src: src, Dst: dst,
					Size: 100 + rng.Intn(1400), Path: path,
				})
			})
		}
		s.Run()
		if len(got) != n {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInjectAtMidPath(t *testing.T) {
	s := sim.New()
	tp := topo.New(topo.DefaultConfig())
	fab := NewFabric(s, tp, DefaultLinkConfig())
	src, dst := tp.HostID(0, 0, 0), tp.HostID(1, 0, 0)
	delivered := false
	fab.RegisterHost(dst, func(pkt *Packet) { delivered = true })
	path := tp.Path(src, dst, 3)
	coreHop := -1
	for i, n := range path {
		if tp.KindOf(n) == topo.KindCore {
			coreHop = i
		}
	}
	pkt := &Packet{Src: src, Dst: dst, Size: 100, Path: path}
	fab.InjectAt(pkt, coreHop)
	s.Run()
	if !delivered {
		t.Fatal("mid-path injection not delivered")
	}
	// Injection at the final hop delivers immediately.
	pkt2 := &Packet{Src: src, Dst: dst, Size: 100, Path: path}
	fab.InjectAt(pkt2, len(path)-1)
	s.Run()
	// Out-of-range hops panic.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad hop")
		}
	}()
	fab.InjectAt(&Packet{Path: path}, len(path))
}

func TestInterceptSwallowsAndCounts(t *testing.T) {
	s := sim.New()
	tp := topo.New(topo.DefaultConfig())
	fab := NewFabric(s, tp, DefaultLinkConfig())
	src, dst := tp.HostID(0, 0, 0), tp.HostID(1, 0, 0)
	delivered, swallowed := 0, 0
	fab.RegisterHost(dst, func(pkt *Packet) { delivered++ })
	fab.SetIntercept(func(node int, pkt *Packet) bool {
		if tp.KindOf(node) == topo.KindAgg && tp.ClusterOf(node) == 1 {
			swallowed++
			return true
		}
		return false
	})
	fab.Inject(&Packet{Src: src, Dst: dst, Size: 100, Path: tp.Path(src, dst, 0)})
	s.Run()
	if delivered != 0 {
		t.Error("intercepted packet was delivered")
	}
	if swallowed != 1 {
		t.Errorf("intercept swallowed %d packets, want 1", swallowed)
	}
	// Clearing the interceptor restores delivery.
	fab.SetIntercept(nil)
	fab.Inject(&Packet{Src: src, Dst: dst, Size: 100, Path: tp.Path(src, dst, 0)})
	s.Run()
	if delivered != 1 {
		t.Error("packet not delivered after clearing interceptor")
	}
}

// Forwarding is the simulator's inner loop: once the event pool, the
// queue rings and the packet pool have warmed up, a packet's whole
// journey — taken from the pool, routed, six ports with queueing at the
// first, delivered, released — must not allocate.
func TestHopDoesNotAllocate(t *testing.T) {
	s, tp, f := newTestFabric()
	src, dst := tp.HostID(0, 0, 0), tp.HostID(1, 1, 1)
	delivered := 0
	f.RegisterHost(dst, func(*Packet) { delivered++ })
	burst := func() {
		for i := 0; i < 8; i++ { // back to back, so seven of them queue
			pkt := f.Packets(src).Get()
			pkt.Src, pkt.Dst, pkt.Hash, pkt.Size = src, dst, uint64(i), MTU
			pkt.Route(tp)
			f.Inject(pkt)
		}
		s.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Errorf("a burst of 8 packets over 6 hops allocates %v times, want 0", allocs)
	}
	if delivered != 8*102 {
		t.Errorf("delivered %d packets, want %d", delivered, 8*102)
	}
}

// The ring must keep FIFO order across growth and wrap-around.
func TestRingOrderAcrossGrowth(t *testing.T) {
	var r ring
	next, want := uint64(0), uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i <= round%13; i++ {
			r.push(&Packet{ID: next})
			next++
		}
		for i := 0; i <= round%7 && r.n > 0; i++ {
			if got := r.pop().ID; got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for r.n > 0 {
		if got := r.pop().ID; got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Errorf("popped %d packets, pushed %d", want, next)
	}
}

// With released packets poisoned, holding on to a delivered packet and
// using it again is a panic, not a quiet alias of some later packet.
func TestPoisonCatchesUseAfterRelease(t *testing.T) {
	PoisonReleasedPackets(t)
	s, tp, f := newTestFabric()
	src, dst := tp.HostID(0, 0, 0), tp.HostID(0, 0, 1)
	var kept *Packet
	f.RegisterHost(dst, func(pkt *Packet) { kept = pkt })
	pkt := f.Packets(src).Get()
	pkt.Src, pkt.Dst, pkt.Size = src, dst, 100
	pkt.Route(tp)
	f.Inject(pkt)
	s.Run()
	if kept == nil {
		t.Fatal("packet not delivered")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-injecting a released packet did not panic")
		}
	}()
	f.Inject(kept)
}
