package netsim

import "mimicnet/internal/stats"

// redQueue implements Random Early Detection (Floyd & Jacobson), the AQM
// the fluid-model literature MimicNet cites analyzes [38]. The average
// queue length is tracked with an EWMA; packets are probabilistically
// dropped (or ECN-marked for ECT traffic when MarkInstead is set) between
// MinTh and MaxTh, and always dropped above MaxTh. It serves as an
// additional queue discipline for ablations beyond the paper's dropTail
// and ECN-threshold base configurations.
type redQueue struct {
	dropTail
	MinTh, MaxTh float64 // thresholds in packets
	MaxP         float64 // drop probability at MaxTh
	Weight       float64 // EWMA weight for the average queue size
	MarkInstead  bool    // mark ECT packets instead of dropping

	avg   float64
	count int // packets since last drop/mark (for uniformization)
	rng   *stats.Stream
}

// newREDQueue builds a RED queue with the classic gentle parameters.
func newREDQueue(capacity int, minTh, maxTh, maxP float64, mark bool, seed int64) *redQueue {
	return &redQueue{
		dropTail:    dropTail{Capacity: capacity},
		MinTh:       minTh,
		MaxTh:       maxTh,
		MaxP:        maxP,
		Weight:      0.002,
		MarkInstead: mark,
		rng:         stats.NewStream(seed),
	}
}

// Enqueue applies RED admission, then dropTail capacity as a backstop.
func (q *redQueue) Enqueue(pkt *Packet) bool {
	q.avg = (1-q.Weight)*q.avg + q.Weight*float64(q.pkts.n)
	switch {
	case q.avg < q.MinTh:
		q.count = 0
	case q.avg >= q.MaxTh:
		if !q.congest(pkt) {
			return false
		}
	default:
		p := q.MaxP * (q.avg - q.MinTh) / (q.MaxTh - q.MinTh)
		// Uniformize: probability grows with the count since the last
		// congestion signal, spreading signals out in time.
		den := 1 - float64(q.count)*p
		if den < 1e-9 {
			den = 1e-9
		}
		q.count++
		if q.rng.Float64() < p/den {
			q.count = 0
			if !q.congest(pkt) {
				return false
			}
		}
	}
	return q.dropTail.Enqueue(pkt)
}

// congest signals congestion on pkt: marks it when configured and the
// packet is ECN-capable, otherwise reports that it must be dropped.
// It returns false when the packet should be dropped.
func (q *redQueue) congest(pkt *Packet) bool {
	if q.MarkInstead && pkt.ECT {
		pkt.CE = true
		return true
	}
	return false
}

// REDFactory returns a factory for RED queues. Each port gets its own
// deterministic random stream derived from its creation order.
func REDFactory(capacity int, minTh, maxTh, maxP float64, mark bool, seed int64) QueueFactory {
	n := int64(0)
	return func() Queue {
		n++
		return newREDQueue(capacity, minTh, maxTh, maxP, mark, seed+n)
	}
}
