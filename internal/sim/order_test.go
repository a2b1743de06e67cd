package sim

import (
	"testing"
)

// The kernel's contract is one total order: events fire by (time,
// scheduling sequence), whatever mix of func() events, typed events,
// cancels and timers produced them, and a Timer behaves exactly like the
// Cancel+After re-arm it replaced — same firing position, same sequence
// numbers consumed, same Processed. This file checks that contract
// against a reference model that knows nothing of heaps, pools or timers:
// flat lists searched for their (at, seq) minimum, timers re-armed by
// cancel-and-append.

// scheduler is what a generated program drives: the real kernel or the
// reference model. Handles are the program's event ids minus one.
type scheduler interface {
	after(d Time, id int, typed bool)
	cancel(handle int)
	timerReset(i int, d Time)
	timerStop(i int)
}

const orderTimers = 3

// program turns a byte string into simulated activity: every firing
// reads the next few bytes and acts on them, so kernel and model stay in
// step for as long as they fire the same events in the same order, and
// diverge visibly the moment they do not.
type program struct {
	data   []byte
	pos    int
	nextID int
	fired  []firing
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

func (p *program) onFire(k scheduler, id int, now Time) {
	p.fired = append(p.fired, firing{id, now})
	if len(p.fired) >= maxOrderEvents || p.pos >= len(p.data) {
		return // out of budget or out of script: let the queue drain
	}
	for n := 1 + p.byte()%3; n > 0; n-- {
		switch op := p.byte() % 8; op {
		case 0, 1, 2:
			p.schedule(k, p.delay(), op == 1)
		case 3:
			p.schedule(k, 0, true)
		case 4:
			k.cancel(p.byte() % p.nextID)
		case 5:
			k.timerReset(p.byte()%orderTimers, p.delay())
		case 6:
			// Push a deadline out, then pull it in: the timer's live
			// entry is first too early, then too late.
			i := p.byte() % orderTimers
			k.timerReset(i, 100+p.delay())
			k.timerReset(i, p.delay())
		case 7:
			k.timerStop(p.byte() % orderTimers)
		}
	}
}

// kernelRun drives the real Simulator.
type kernelRun struct {
	program
	s      *Simulator
	refs   []EventRef
	timers [orderTimers]Timer
	typed  Handler
}

func newKernelRun(data []byte) *kernelRun {
	k := &kernelRun{program: program{data: data}, s: New()}
	k.typed = func(_ any, id int64) { k.onFire(k, int(id), k.s.Now()) }
	for i := range k.timers {
		k.timers[i].Init(k.s, k.typed, nil, int64(-1-i))
	}
	return k
}

func (k *kernelRun) after(d Time, id int, typed bool) {
	if typed {
		k.refs = append(k.refs, k.s.Schedule(k.s.Now()+d, k.typed, nil, int64(id)))
	} else {
		k.refs = append(k.refs, k.s.After(d, func() { k.onFire(k, id, k.s.Now()) }))
	}
}
func (k *kernelRun) cancel(h int)             { k.s.Cancel(k.refs[h]) }
func (k *kernelRun) timerReset(i int, d Time) { k.timers[i].Reset(d) }
func (k *kernelRun) timerStop(i int)          { k.timers[i].Stop() }

// modelRun is the reference. Scheduled events live in pend, indexed by
// handle; timer entries in tpend, where armed[i] indexes timer i's live
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
	dead bool // fired or cancelled
}

func newModelRun(data []byte) *modelRun {
	return &modelRun{program: program{data: data}, armed: [orderTimers]int{-1, -1, -1}}
}

func (m *modelRun) after(d Time, id int, _ bool) {
	m.pend = append(m.pend, modelEvent{at: m.now + d, seq: m.seq, id: id})
	m.seq++
}
func (m *modelRun) cancel(h int) { m.pend[h].dead = true }
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
	// The kernel runs in pieces, by Step and by RunUntil at a horizon
	// that falls between events, to cover every way of driving the loop.
	k.s.Step()
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
		t.Errorf("kernel consumed %d sequence numbers, Cancel+After formulation %d", k.s.seq, m.seq)
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
// Cancel+After would hold a thousand.
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
