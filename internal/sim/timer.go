package sim

import "fmt"

// Timer is a re-armable typed event for deadlines that move far more
// often than they expire: a TCP retransmission timeout is pushed back by
// every ACK and fires for perhaps one flow in a hundred. Re-arming by
// cancelling one event and scheduling another would leave one dead heap
// entry behind per ACK, each of which sits in the queue for a whole
// timeout; a Timer keeps at most one live entry however often it is Reset.
//
// Invariant: while the timer is armed, its live heap entry is keyed at or
// before the armed deadline (at, seq). Reset to a later deadline therefore
// only records the new key; when the entry surfaces early the kernel
// re-queues it under the recorded key without executing anything or
// counting an event. Reset to an earlier deadline queues a fresh entry
// and orphans the old one by generation. Either way the handler runs at
// the position in (time, seq) order that cancel-and-reschedule at the
// same call sites would have given it, and Reset consumes one sequence
// number just as After does.
//
// The zero Timer must be set up with Init before use and must not be
// copied afterwards. It may live inside the structure it times.
type Timer struct {
	s  *Simulator
	ev event // the record every heap entry of this timer points at

	at    Time   // armed deadline
	seq   uint64 // and its tie-break among events at the same time
	armed bool

	queued   bool // ev has a live heap entry
	queuedAt Time // the time that entry is keyed at
}

// Init binds the timer to a simulator and to the handler call h(p, n)
// that an expiry makes.
func (t *Timer) Init(s *Simulator, h Handler, p any, n int64) {
	if h == nil {
		panic("sim: Timer needs a handler")
	}
	t.s = s
	t.ev.h, t.ev.p, t.ev.n = h, p, n
	t.ev.timer = t
}

// Armed reports whether the timer is waiting to expire.
func (t *Timer) Armed() bool { return t.armed }

// Reset arms the timer to expire d after the current simulated time,
// replacing any earlier deadline.
func (t *Timer) Reset(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s := t.s
	t.at, t.seq, t.armed = s.now+d, s.seq, true
	s.seq++
	if t.queued {
		if t.queuedAt <= t.at {
			return
		}
		t.ev.gen++ // orphan the later entry
	}
	t.enqueue()
}

// enqueue makes an entry keyed at the armed deadline the live one.
func (t *Timer) enqueue() {
	t.queued, t.queuedAt = true, t.at
	t.s.push(heapEntry{at: t.at, seq: t.seq, e: &t.ev, gen: t.ev.gen})
}

// Stop disarms the timer. Its heap entry, if any, is discarded when it
// surfaces.
func (t *Timer) Stop() { t.armed = false }

// expire is called by the kernel with the timer's live entry, just
// popped. It reports whether the handler should run now.
func (t *Timer) expire(top heapEntry) bool {
	if !t.armed {
		t.queued = false
		return false
	}
	if top.seq != t.seq {
		// The deadline moved while this entry waited: queue again under
		// the key Reset recorded.
		t.enqueue()
		return false
	}
	t.armed, t.queued = false, false
	return true
}
