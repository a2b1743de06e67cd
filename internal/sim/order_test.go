package sim

import (
	"testing"
)

// The kernel's contract is one total order: events fire by (time,
// scheduling sequence), whatever mix of func() events, typed events,
// lane events and timers produced them, and a Timer behaves exactly like
// a cancel-and-reschedule re-arm — same firing position, same sequence
// numbers consumed, same Processed. This file checks that contract
// against a reference model that knows nothing of heaps, lanes, pools or
// timers: flat lists searched for their (at, seq) minimum, timers
// re-armed by cancel-and-append.

// scheduler is what a generated program drives: the real kernel or the
// reference model.
type scheduler interface {
	after(d Time, id int, typed bool)
	onLane(lane int, t Time, id int)
	timerReset(i int, d Time)
	timerStop(i int)
}

const (
	orderTimers = 3
	orderLanes  = 2
)

// program turns a byte string into simulated activity: every firing
// reads the next few bytes and acts on them, so kernel and model stay in
// step for as long as they fire the same events in the same order, and
// diverge visibly the moment they do not.
type program struct {
	data   []byte
	pos    int
	nextID int
	fired  []firing
	tail   [orderLanes]Time // latest time scheduled on each lane
}

type firing struct {
	id int // > 0 a scheduled event, < 0 timer -1-id
	at Time
}

// maxOrderEvents bounds how long a program keeps scheduling.
const maxOrderEvents = 1500

func (p *program) byte() int {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b)
}

// delay draws mostly tiny delays, so that same-time ties are the common
// case, and now and then a long one.
func (p *program) delay() Time {
	b := p.byte()
	if b%16 == 15 {
		return Time(b) * 37
	}
	return Time(b % 4)
}

func (p *program) schedule(k scheduler, d Time, typed bool) {
	p.nextID++
	k.after(d, p.nextID, typed)
}

// scheduleOnLane queues an event on lane i at now+d, or, when inOrder, d
// after the lane's latest time if that is later. An out-of-order time
// takes the kernel's heap fallback; either way ties with heap events and
// timers at the same nanosecond are common, since most delays are tiny.
func (p *program) scheduleOnLane(k scheduler, now Time, i int, d Time, inOrder bool) {
	t := now + d
	if inOrder && p.tail[i]+d > t {
		t = p.tail[i] + d
	}
	p.tail[i] = max(p.tail[i], t)
	p.nextID++
	k.onLane(i, t, p.nextID)
}

func (p *program) onFire(k scheduler, id int, now Time) {
	p.fired = append(p.fired, firing{id, now})
	if len(p.fired) >= maxOrderEvents || p.pos >= len(p.data) {
		return // out of budget or out of script: let the queue drain
	}
	for n := 1 + p.byte()%3; n > 0; n-- {
		switch op := p.byte() % 9; op {
		case 0, 1, 2:
			p.schedule(k, p.delay(), op == 1)
		case 3:
			p.schedule(k, 0, true)
		case 4:
			k.timerReset(p.byte()%orderTimers, p.delay())
		case 5:
			// Push a deadline out, then pull it in: the timer's live
			// entry is first too early, then too late.
			i := p.byte() % orderTimers
			k.timerReset(i, 100+p.delay())
			k.timerReset(i, p.delay())
		case 6:
			k.timerStop(p.byte() % orderTimers)
		case 7, 8:
			p.scheduleOnLane(k, now, p.byte()%orderLanes, p.delay(), op == 7)
		}
	}
}

// kernelRun drives the real Simulator.
type kernelRun struct {
	program
	s      *Simulator
	timers [orderTimers]Timer
	lanes  [orderLanes]*Lane
	typed  Handler
}

func newKernelRun(data []byte) *kernelRun {
	k := &kernelRun{program: program{data: data}, s: New()}
	k.typed = func(_ any, id int64) { k.onFire(k, int(id), k.s.Now()) }
	for i := range k.timers {
		k.timers[i].Init(k.s, k.typed, nil, int64(-1-i))
	}
	for i := range k.lanes {
		k.lanes[i] = k.s.NewLane()
	}
	return k
}

func (k *kernelRun) after(d Time, id int, typed bool) {
	if typed {
		k.s.Schedule(k.s.Now()+d, k.typed, nil, int64(id))
	} else {
		k.s.After(d, func() { k.onFire(k, id, k.s.Now()) })
	}
}
func (k *kernelRun) onLane(i int, t Time, id int) { k.lanes[i].Schedule(t, k.typed, nil, int64(id)) }
func (k *kernelRun) timerReset(i int, d Time)     { k.timers[i].Reset(d) }
func (k *kernelRun) timerStop(i int)              { k.timers[i].Stop() }

// modelRun is the reference. Scheduled events live in pend; timer
// entries in tpend, where armed[i] indexes timer i's live
// one. One sequence counter serves both, as in the kernel.
type modelRun struct {
	program
	now   Time
	seq   uint64
	pend  []modelEvent
	tpend []modelEvent
	armed [orderTimers]int
	count uint64
}

type modelEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool // fired, or a timer entry stopped or re-armed
}

func newModelRun(data []byte) *modelRun {
	return &modelRun{program: program{data: data}, armed: [orderTimers]int{-1, -1, -1}}
}

func (m *modelRun) after(d Time, id int, _ bool) {
	m.pend = append(m.pend, modelEvent{at: m.now + d, seq: m.seq, id: id})
	m.seq++
}
func (m *modelRun) onLane(_ int, t Time, id int) {
	m.pend = append(m.pend, modelEvent{at: t, seq: m.seq, id: id})
	m.seq++
}
func (m *modelRun) timerReset(i int, d Time) {
	m.timerStop(i)
	m.armed[i] = len(m.tpend)
	m.tpend = append(m.tpend, modelEvent{at: m.now + d, seq: m.seq, id: -1 - i})
	m.seq++
}
func (m *modelRun) timerStop(i int) {
	if h := m.armed[i]; h >= 0 {
		m.tpend[h].dead = true
		m.armed[i] = -1
	}
}

// run fires events in (at, seq) order until none is left.
func (m *modelRun) run() {
	for {
		var next *modelEvent
		for _, list := range [][]modelEvent{m.pend, m.tpend} {
			for i := range list {
				e := &list[i]
				if !e.dead && (next == nil || e.at < next.at || e.at == next.at && e.seq < next.seq) {
					next = e
				}
			}
		}
		if next == nil {
			return
		}
		next.dead = true
		if next.id < 0 {
			m.armed[-1-next.id] = -1
		}
		m.now = next.at
		m.count++
		m.onFire(m, next.id, m.now)
	}
}

// checkKernelOrder runs one program on the kernel and on the model,
// compares everything observable and returns how many events fired.
func checkKernelOrder(t *testing.T, data []byte) int {
	t.Helper()
	k, m := newKernelRun(data), newModelRun(data)
	k.schedule(k, 0, false)
	m.schedule(m, 0, false)
	// The kernel runs in pieces, by RunUntil at horizons that fall
	// between events, to cover every way of driving the loop.
	k.s.RunUntil(0)
	k.s.RunUntil(50)
	k.s.Run()
	m.run()

	if len(k.fired) != len(m.fired) {
		t.Fatalf("kernel fired %d events, reference %d", len(k.fired), len(m.fired))
	}
	for i := range m.fired {
		if k.fired[i] != m.fired[i] {
			t.Fatalf("firing %d: kernel %+v, reference %+v", i, k.fired[i], m.fired[i])
		}
	}
	if k.s.Processed() != m.count {
		t.Errorf("Processed = %d, reference fired %d", k.s.Processed(), m.count)
	}
	if k.s.seq != m.seq {
		t.Errorf("kernel consumed %d sequence numbers, cancel-and-reschedule formulation %d", k.s.seq, m.seq)
	}
	for i := range k.timers {
		if got, want := k.timers[i].Armed(), m.armed[i] >= 0; got != want {
			t.Errorf("timer %d armed = %v, reference %v", i, got, want)
		}
	}
	return len(m.fired)
}

// orderSeeds are byte strings that between them reach every op, ties at
// one timestamp, deadlines moved both ways and stops with an entry live.
func orderSeeds() [][]byte {
	seeds := [][]byte{
		{2, 0, 1, 1, 2, 5, 0, 5},
		{2, 6, 0, 31, 2, 5, 0, 1, 7, 0, 5, 0, 0, 4, 0, 0},
		{2, 5, 1, 47, 5, 1, 1, 7, 1, 5, 6, 1, 2, 3, 3, 3, 1, 0, 4, 6, 1, 15, 0},
	}
	// A long pseudo-random program: hundreds of events over all ops.
	long := make([]byte, 6000)
	x := uint32(2463534242)
	for i := range long {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		long[i] = byte(x >> 11)
	}
	return append(seeds, long, long[1000:], long[3000:])
}

func TestKernelOrderMatchesReference(t *testing.T) {
	total := 0
	for _, data := range orderSeeds() {
		total += checkKernelOrder(t, data)
	}
	t.Logf("seed programs fired %d events", total)
	if total < 1000 {
		t.Errorf("seed programs fired only %d events; they exercise too little", total)
	}
}

func FuzzKernelOrder(f *testing.F) {
	for _, data := range orderSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkKernelOrder(t, data) })
}

// A Timer is re-armed once per ACK: Reset, and the expiry that follows a
// quiet period, must not allocate.
func TestTimerDoesNotAllocate(t *testing.T) {
	s := New()
	fired := 0
	var tm Timer
	tm.Init(s, func(any, int64) { fired++ }, nil, 0)
	s.Schedule(0, func(any, int64) {}, nil, 0) // warm the heap's backing array
	tm.Reset(10)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(10)
		tm.Reset(20) // moved later: no new entry
		tm.Reset(5)  // moved earlier: one new entry, the old one orphaned
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("Timer.Reset allocates %v/op, want 0", allocs)
	}
	if fired != 1002 {
		t.Errorf("timer fired %d times, want 1002", fired)
	}
}

// A timer pushed back a thousand times holds one heap entry, where
// cancel-and-reschedule would hold a thousand.
func TestTimerKeepsOneHeapEntry(t *testing.T) {
	s := New()
	var tm Timer
	tm.Init(s, func(any, int64) {}, nil, 0)
	for i := 0; i < 1000; i++ {
		tm.Reset(Time(100 + i))
	}
	if len(s.heap) != 1 {
		t.Errorf("%d events queued after 1000 Resets, want 1", len(s.heap))
	}
	s.Run()
	if s.Processed() != 1 || s.Now() != 1099 {
		t.Errorf("Processed = %d at %v, want 1 at 1099ns", s.Processed(), s.Now())
	}
}

// A lane's ring wraps and then doubles with entries live on both sides of
// the wrap; its events keep their order, skip the heap, and a steady
// schedule-and-fire cycle allocates nothing once the ring has grown.
func TestLaneRingWrapsAndGrows(t *testing.T) {
	s := New()
	l := s.NewLane()
	var got []int64
	h := func(_ any, n int64) { got = append(got, n) }
	for i := int64(0); i < 50; i++ {
		l.Schedule(Time(i), h, nil, i)
	}
	s.RunUntil(39) // head is now 40 entries into the ring
	for i := int64(50); i < 250; i++ {
		l.Schedule(Time(i), h, nil, i) // wraps at 64, then grows twice
	}
	if len(s.heap) != 0 {
		t.Fatalf("%d in-order lane events went to the heap", len(s.heap))
	}
	s.Run()
	if len(got) != 250 || s.Processed() != 250 {
		t.Fatalf("fired %d events (Processed %d), want 250", len(got), s.Processed())
	}
	for i, n := range got {
		if n != int64(i) {
			t.Fatalf("firing %d was event %d", i, n)
		}
	}
	nop := func(any, int64) {}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Schedule(s.Now()+1, nop, nil, 0)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("lane schedule-and-fire allocates %v/op, want 0", allocs)
	}
}

// Grow sizes a lane's ring once, to the next power of two that holds its
// live entries and n more, unwrapping live entries that straddle the
// wrap; the n events then schedule into that ring and fire in order.
func TestLaneGrowSizesOnce(t *testing.T) {
	s := New()
	l := s.NewLane()
	var got []int64
	h := func(_ any, n int64) { got = append(got, n) }
	for i := int64(0); i < 60; i++ {
		l.Schedule(Time(i), h, nil, i)
	}
	s.RunUntil(39)
	for i := int64(60); i < 70; i++ {
		l.Schedule(Time(i), h, nil, i) // wraps the 64-entry ring
	}
	l.Grow(1000) // 30 live + 1000
	if len(l.ring) != 2048 {
		t.Fatalf("Grow(1000) with 30 queued made a ring of %d, want 2048", len(l.ring))
	}
	ring := &l.ring[0]
	for i := int64(70); i < 1070; i++ {
		l.Schedule(Time(i), h, nil, i)
	}
	l.Grow(0)
	if &l.ring[0] != ring || len(s.heap) != 0 {
		t.Errorf("1000 events after Grow(1000) moved the ring (now %d entries) or went to the heap", len(l.ring))
	}
	s.Run()
	if len(got) != 1070 {
		t.Fatalf("fired %d events, want 1070", len(got))
	}
	for i, n := range got {
		if n != int64(i) {
			t.Fatalf("firing %d was event %d", i, n)
		}
	}
}
