// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel plays the role OMNeT++ plays for the original MimicNet: every
// component of the simulated network distills its behavior into events that
// fire at a designated simulated time. Events scheduled for the same time
// fire in scheduling order, which—together with seeded randomness—makes
// whole-simulation runs bit-for-bit reproducible.
//
// The hot path is allocation-free in steady state, for the kernel and for
// its callers: event records come from a per-simulator free list and are
// recycled the moment they fire, and the per-packet work of a simulation
// is scheduled as typed events (Schedule, Lane.Schedule, LP.Send: a
// Handler bound once plus a pointer and an integer) and re-armable
// Timers, none of which needs a closure. At and After take a func() and
// remain for the rare control events, such as samplers, where a captured
// closure is the clearest way to say what should happen.
//
// Pending events wait in one of two kinds of queue, merged under one
// (time, seq) order. The general one is a 4-ary min-heap of inline
// (time, seq) keys, so ordering decisions never chase the event pointer
// and no container/heap interface boxing occurs. Beside it a simulator
// may hold Lanes: FIFO rings for callers whose event times never
// decrease (a fabric's propagation legs and fixed-size serializations, a
// workload's flow starts), which skip the heap altogether.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulated timestamp in nanoseconds. It is unrelated to wall
// clock time: a Simulator may process hours of simulated Time in seconds,
// or vice versa.
type Time int64

// Common durations, mirroring time.Duration but as sim.Time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time as seconds with nanosecond precision.
func (t Time) String() string { return fmt.Sprintf("%.9fs", t.Seconds()) }

// Handler is the callback of a typed event. It receives the pointer and
// the integer the event was scheduled with. A handler is a package-level
// function or a method value bound once when its owner is built, and p is
// a pointer (storing a pointer in an interface does not allocate), so
// scheduling a typed event allocates nothing.
type Handler func(p any, n int64)

// event is a pooled callback record. gen counts the heap entries a
// Timer's own record has orphaned (see Timer.Reset).
type event struct {
	h     Handler // nil for a func() event, whose callback is p
	p     any
	n     int64
	at    Time
	gen   uint32
	timer *Timer // set on a Timer's own record, which is never pooled
	next  *event // free-list link
}

// heapEntry is one heap slot. The ordering key (at, seq) is
// stored inline so sift operations compare without touching the event.
// gen snapshots the event's generation at scheduling time; a mismatch at
// pop time means a Timer orphaned the entry.
type heapEntry struct {
	at  Time
	seq uint64
	e   *event
	gen uint32
}

// poolBlock is how many event records one free-list refill allocates.
const poolBlock = 256

// Simulator owns the event queue and the simulated clock.
// The zero value is not usable; call New.
type Simulator struct {
	now       Time
	heap      []heapEntry
	seq       uint64
	processed uint64
	stopped   bool
	free      *event  // free list of recycled event records
	lanes     []*Lane // FIFO queues merged with the heap (see Lane)

	tickEvery uint64
	tick      func(now Time, processed uint64) (stop bool)
}

// SetTicker installs a hook called every `every` processed events during
// RunUntil with the current clock and event count. Returning true stops
// the run after the current event, leaving pending events queued — the
// mechanism behind cooperative cancellation (cluster.RunContext) and
// streaming progress. The hook only observes, so installing one never
// changes results; pass a nil fn (or every == 0) to clear it.
func (s *Simulator) SetTicker(every uint64, fn func(now Time, processed uint64) bool) {
	if fn == nil || every == 0 {
		s.tickEvery, s.tick = 0, nil
		return
	}
	s.tickEvery, s.tick = every, fn
}

// New returns an empty simulator at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Processed returns the number of events executed so far. It is the
// simulator's measure of work done, used by the scalability experiments.
func (s *Simulator) Processed() uint64 { return s.processed }

// alloc takes an event record from the free list, refilling it with a
// block allocation when empty so steady-state scheduling allocates
// nothing.
func (s *Simulator) alloc() *event {
	if s.free == nil {
		block := make([]event, poolBlock)
		for i := range block {
			block[i].next = s.free
			s.free = &block[i]
		}
	}
	e := s.free
	s.free = e.next
	e.next = nil
	return e
}

// recycle returns a fired record to the free list.
func (s *Simulator) recycle(e *event) {
	e.h, e.p = nil, nil
	e.next = s.free
	s.free = e
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it indicates a causality bug in the caller.
func (s *Simulator) At(t Time, fn func()) {
	s.schedule(t, nil, fn, 0)
}

// Schedule is At for a typed event: h(p, n) runs at absolute simulated
// time t. It shares At's sequence counter, so typed and func() events
// scheduled for the same time fire in scheduling order.
func (s *Simulator) Schedule(t Time, h Handler, p any, n int64) {
	if h == nil {
		panic("sim: Schedule needs a handler")
	}
	s.schedule(t, h, p, n)
}

// schedule queues one event; a nil h marks a func() event carried in p.
func (s *Simulator) schedule(t Time, h Handler, p any, n int64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.alloc()
	e.at = t
	e.h, e.p, e.n = h, p, n
	s.push(heapEntry{at: t, seq: s.seq, e: e, gen: e.gen})
	s.seq++
}

// After schedules fn to run d after the current simulated time.
func (s *Simulator) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Run executes events until the queue is empty or the ticker stops it.
func (s *Simulator) Run() {
	s.RunUntil(Time(1<<63 - 1))
}

// RunUntil executes events with timestamps <= limit. The clock is left at
// the last executed event's time (or limit if that is earlier than the next
// pending event, so repeated RunUntil calls advance monotonically).
func (s *Simulator) RunUntil(limit Time) {
	s.stopped = false
	s.run(limit)
	if !s.stopped && s.now < limit && limit < Time(1<<62) {
		s.now = limit
	}
}

// run is the event loop: it executes events up to limit, taking each
// time the least (at, seq) of the heap top and every lane head. A timer's
// heap entry that is orphaned, stopped or early (see Timer) executes
// nothing, leaves the clock alone and is not counted in Processed.
func (s *Simulator) run(limit Time) {
	for !s.stopped {
		var lane *Lane
		at, seq := Time(1<<63-1), ^uint64(0)
		if len(s.heap) > 0 {
			at, seq = s.heap[0].at, s.heap[0].seq
		}
		for _, l := range s.lanes {
			if l.n > 0 {
				if e := &l.ring[l.head]; keyLess(e.at, e.seq, at, seq) {
					lane, at, seq = l, e.at, e.seq
				}
			}
		}
		if lane == nil && len(s.heap) == 0 || at > limit {
			break
		}
		var h Handler
		var p any
		var n int64
		if lane != nil {
			h, p, n = lane.pop()
		} else {
			top := s.heap[0]
			s.pop()
			e := top.e
			if e.gen != top.gen {
				continue // orphaned by Timer.Reset
			}
			h, p, n = e.h, e.p, e.n
			if e.timer == nil {
				s.recycle(e)
			} else if !e.timer.expire(top) {
				continue
			}
		}
		s.now = at
		s.processed++
		if h == nil {
			p.(func())()
		} else {
			h(p, n)
		}
		if s.tick != nil && s.processed%s.tickEvery == 0 && s.tick(s.now, s.processed) {
			s.stopped = true
		}
	}
}

// The heap is a 4-ary min-heap ordered by (at, seq). 4-ary wins
// over binary here because sift-down dominates (every pop sifts a leaf
// from the root) and the shallower tree does fewer cache-missing levels;
// the four children share one 32-byte-entry cache span.
//
// Which of four children is least is a coin toss the branch predictor
// loses, at every level of every pop, so that choice is computed rather
// than branched on: (at, seq) is compared as one 128-bit number by a
// subtract-with-borrow pair (at is never negative), and the borrow
// selects an index by masking.

func entryLess(a, b *heapEntry) bool { return keyLess(a.at, a.seq, b.at, b.seq) }

// keyLess reports whether the key (at1, seq1) orders before (at2, seq2).
func keyLess(at1 Time, seq1 uint64, at2 Time, seq2 uint64) bool {
	if at1 != at2 {
		return at1 < at2
	}
	return seq1 < seq2
}

// least returns whichever of the indices i and j holds the entry that
// orders first, without branching.
func least(h []heapEntry, i, j int) int {
	_, borrow := bits.Sub64(h[j].seq, h[i].seq, 0)
	_, borrow = bits.Sub64(uint64(h[j].at), uint64(h[i].at), borrow)
	return i ^ (i^j)&-int(borrow) // j when h[j] < h[i]
}

// push adds an entry to the heap. Both sifts move a hole rather
// than swapping: the travelling entry is written once, where it lands.
func (s *Simulator) push(ent heapEntry) {
	s.heap = append(s.heap, ent)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(&ent, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

// pop removes the minimum entry (the caller has already copied h[0]): the
// last entry is sifted down from the root.
func (s *Simulator) pop() {
	h := s.heap
	n := len(h) - 1
	ent := h[n]
	h[n] = heapEntry{} // release the event reference
	h = h[:n]
	s.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		var min int
		if first+3 < n {
			min = least(h, least(h, first, first+1), least(h, first+2, first+3))
		} else if first < n {
			min = first
			for c := first + 1; c < n; c++ {
				min = least(h, min, c)
			}
		} else {
			break
		}
		if !entryLess(&h[min], &ent) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ent
}
