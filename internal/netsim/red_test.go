package netsim

import (
	"testing"
)

func TestREDBelowMinThAdmitsAll(t *testing.T) {
	q := NewREDQueue(100, 10, 30, 0.1, false, 1)
	for i := 0; i < 5; i++ {
		pkt := &Packet{Size: 100}
		if !q.Enqueue(pkt) {
			t.Fatal("packet dropped below MinTh")
		}
		if pkt.CE {
			t.Fatal("packet marked below MinTh")
		}
		q.Dequeue() // keep instantaneous queue near zero
	}
}

func TestREDDropsUnderSustainedLoad(t *testing.T) {
	q := NewREDQueue(1000, 5, 15, 0.5, false, 1)
	drops := 0
	// Fill without draining: the EWMA average climbs past MaxTh.
	for i := 0; i < 4000; i++ {
		if !q.Enqueue(&Packet{Size: 100}) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped under sustained overload")
	}
	if q.avg < q.MinTh {
		t.Errorf("average %v did not climb above MinTh", q.avg)
	}
}

func TestREDMarksInsteadOfDroppingECT(t *testing.T) {
	q := NewREDQueue(4000, 5, 15, 0.5, true, 1)
	marked, dropped := 0, 0
	for i := 0; i < 3000; i++ {
		pkt := &Packet{Size: 100, ECT: true}
		if !q.Enqueue(pkt) {
			dropped++
		} else if pkt.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("mark-mode RED never marked ECT packets")
	}
	if dropped != 0 {
		t.Errorf("mark-mode RED dropped %d ECT packets within capacity", dropped)
	}
	// Non-ECT packets still get dropped in mark mode.
	q2 := NewREDQueue(4000, 5, 15, 0.5, true, 1)
	dropped = 0
	for i := 0; i < 3000; i++ {
		if !q2.Enqueue(&Packet{Size: 100}) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("mark-mode RED must drop non-ECT packets under congestion")
	}
}

func TestREDProbabilisticRegion(t *testing.T) {
	// Hold the average between thresholds and observe an intermediate
	// drop rate (neither 0 nor 1).
	q := NewREDQueue(100000, 2, 50, 0.3, false, 42)
	// Prime the average to ~10 by enqueueing without draining until avg
	// crosses MinTh, then alternate enqueue/dequeue to hold it.
	for q.avg < 10 {
		q.Enqueue(&Packet{Size: 100})
	}
	admitted, dropped := 0, 0
	for i := 0; i < 5000; i++ {
		if q.Enqueue(&Packet{Size: 100}) {
			admitted++
			q.Dequeue()
			q.Dequeue() // drain a bit faster to hold avg roughly steady
		} else {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("no probabilistic drops in the RED region")
	}
	if admitted == 0 {
		t.Error("RED dropped everything in the probabilistic region")
	}
}

func TestREDFactoryDistinctStreams(t *testing.T) {
	f := REDFactory(100, 5, 15, 0.5, false, 9)
	a, b := f().(*REDQueue), f().(*REDQueue)
	if a == b {
		t.Fatal("factory returned the same queue")
	}
	if a.rng == b.rng {
		t.Error("factory shared RNG between ports")
	}
}

func TestREDDeterministic(t *testing.T) {
	run := func() (drops int) {
		q := NewREDQueue(1000, 5, 15, 0.5, false, 7)
		for i := 0; i < 2000; i++ {
			if !q.Enqueue(&Packet{Size: 100}) {
				drops++
			}
		}
		return drops
	}
	if run() != run() {
		t.Error("RED not deterministic under fixed seed")
	}
}
