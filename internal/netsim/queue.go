package netsim

// Queue is an output-port packet queue discipline. Implementations decide
// admission (drop), marking (ECN), and dequeue order.
type Queue interface {
	// Enqueue offers a packet. It returns false if the packet is dropped.
	// The queue may set pkt.CE as a side effect (ECN marking).
	Enqueue(pkt *Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil.
	Dequeue() *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
}

// ring is a FIFO of packets in a circular buffer. It starts empty and
// doubles when full, so a port that never queues costs nothing and a busy
// one stops allocating once it has seen its peak depth.
type ring struct {
	buf  []*Packet // length is zero or a power of two
	head int
	n    int
}

func (r *ring) push(pkt *Packet) {
	if r.n == len(r.buf) {
		grown := make([]*Packet, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = pkt
	r.n++
}

// pop removes the oldest packet; the ring must not be empty.
func (r *ring) pop() *Packet {
	pkt := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return pkt
}

// dropTail is a FIFO queue with a packet-count capacity, the paper's base
// configuration.
type dropTail struct {
	Capacity int // max queued packets
	pkts     ring
	bytes    int
}

// newDropTail returns a FIFO with the given packet capacity.
func newDropTail(capacity int) *dropTail {
	return &dropTail{Capacity: capacity}
}

// Enqueue appends unless full.
func (q *dropTail) Enqueue(pkt *Packet) bool {
	if q.pkts.n >= q.Capacity {
		return false
	}
	q.pkts.push(pkt)
	q.bytes += pkt.Size
	return true
}

// Dequeue pops the head.
func (q *dropTail) Dequeue() *Packet {
	if q.pkts.n == 0 {
		return nil
	}
	pkt := q.pkts.pop()
	q.bytes -= pkt.Size
	return pkt
}

// Len returns queued packet count.
func (q *dropTail) Len() int { return q.pkts.n }

// Bytes returns queued byte count.
func (q *dropTail) Bytes() int { return q.bytes }

// ecnQueue is dropTail plus DCTCP-style threshold marking: packets
// enqueued while the instantaneous queue length is at least K packets get
// CE set (if ECN-capable). K is the knob swept in the paper's Figure 13.
type ecnQueue struct {
	dropTail
	K int // marking threshold in packets
}

// newECNQueue returns an ECN threshold queue.
func newECNQueue(capacity, k int) *ecnQueue {
	return &ecnQueue{dropTail: dropTail{Capacity: capacity}, K: k}
}

// Enqueue marks then delegates to dropTail admission.
func (q *ecnQueue) Enqueue(pkt *Packet) bool {
	if pkt.ECT && q.pkts.n >= q.K {
		pkt.CE = true
	}
	return q.dropTail.Enqueue(pkt)
}

// priorityQueue implements strict-priority scheduling over N bands with a
// shared capacity; band 0 is served first. Homa's receiver-driven
// transport relies on this (paper §9.4.2: "a challenging extra feature for
// MimicNet as packets can be reordered").
type priorityQueue struct {
	Capacity int
	bands    []ring
	len      int
	bytes    int
}

// newPriorityQueue returns a strict-priority queue with the given number
// of bands and total packet capacity.
func newPriorityQueue(bands, capacity int) *priorityQueue {
	if bands < 1 {
		panic("netsim: need at least one priority band")
	}
	return &priorityQueue{Capacity: capacity, bands: make([]ring, bands)}
}

// Enqueue places the packet in its priority band unless the shared
// capacity is exhausted. Out-of-range priorities are clamped.
func (q *priorityQueue) Enqueue(pkt *Packet) bool {
	if q.len >= q.Capacity {
		return false
	}
	b := pkt.Priority
	if b < 0 {
		b = 0
	}
	if b >= len(q.bands) {
		b = len(q.bands) - 1
	}
	q.bands[b].push(pkt)
	q.len++
	q.bytes += pkt.Size
	return true
}

// Dequeue serves the lowest-numbered non-empty band.
func (q *priorityQueue) Dequeue() *Packet {
	for b := range q.bands {
		if q.bands[b].n == 0 {
			continue
		}
		pkt := q.bands[b].pop()
		q.len--
		q.bytes -= pkt.Size
		return pkt
	}
	return nil
}

// Len returns queued packet count.
func (q *priorityQueue) Len() int { return q.len }

// Bytes returns queued byte count.
func (q *priorityQueue) Bytes() int { return q.bytes }

// QueueFactory builds a fresh queue for each output port.
type QueueFactory func() Queue

// DropTailFactory returns a factory for dropTail queues.
func DropTailFactory(capacity int) QueueFactory {
	return func() Queue { return newDropTail(capacity) }
}

// ECNFactory returns a factory for ECN threshold queues.
func ECNFactory(capacity, k int) QueueFactory {
	return func() Queue { return newECNQueue(capacity, k) }
}

// PriorityFactory returns a factory for strict-priority queues.
func PriorityFactory(bands, capacity int) QueueFactory {
	return func() Queue { return newPriorityQueue(bands, capacity) }
}
