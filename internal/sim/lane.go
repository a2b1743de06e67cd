package sim

import "fmt"

// Lane is a FIFO of typed events for a caller whose event times never
// decrease: every port of a fabric schedules its propagation leg at
// now + the one link delay, and a workload's flow starts are generated
// in time order. Such events leave a Lane in (time, seq) order by
// construction, so they need no heap: queueing and firing one is a ring
// write and a ring read.
//
// A Lane belongs to one Simulator and draws its sequence numbers from the
// Simulator's one counter. The event loop fires the least (time, seq) of
// the heap top and every lane head, so an event fires at exactly the
// position Simulator.Schedule would have given it. A Schedule earlier
// than the lane's newest entry goes into the heap instead, which keeps
// that order for any caller. Lanes are made by Simulator.NewLane.
type Lane struct {
	s    *Simulator
	ring []laneEntry // power-of-two length, grown by doubling
	head int         // index of the oldest entry
	n    int         // entries queued
	tail Time        // time of the newest entry while n > 0
}

// laneEntry is one queued event with its own ordering key.
type laneEntry struct {
	at  Time
	seq uint64
	h   Handler
	p   any
	n   int64
}

// laneMinRing is the ring length a lane starts at on its first event.
const laneMinRing = 64

// NewLane returns an empty lane whose events the simulator's event loop
// fires.
func (s *Simulator) NewLane() *Lane {
	l := &Lane{s: s}
	s.lanes = append(s.lanes, l)
	return l
}

// Schedule is Simulator.Schedule through the lane: h(p, n) runs at
// absolute simulated time t, in the same (time, seq) order.
func (l *Lane) Schedule(t Time, h Handler, p any, n int64) {
	s := l.s
	if h == nil {
		panic("sim: Schedule needs a handler")
	}
	if l.n > 0 && t < l.tail {
		s.schedule(t, h, p, n) // out of order for the ring
		return
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	// Field by field: a composite literal is built on the stack and
	// copied, which costs a store-forwarding stall per event.
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	e.at, e.seq, e.h, e.p, e.n = t, s.seq, h, p, n
	l.n++
	l.tail = t
	s.seq++
}

// grow doubles the ring, unwrapping its entries to the front.
func (l *Lane) grow() {
	ring := make([]laneEntry, max(2*len(l.ring), laneMinRing))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// pop removes the oldest entry (the caller has checked n > 0) and returns
// its call.
func (l *Lane) pop() (Handler, any, int64) {
	e := &l.ring[l.head]
	h, p, n := e.h, e.p, e.n
	e.h, e.p = nil, nil // release the references
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return h, p, n
}
