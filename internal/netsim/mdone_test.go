package netsim

import (
	"math"
	"testing"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

// TestPortMatchesMD1 holds one drop-tail Port to queueing theory. Poisson
// arrivals of 1 500 B packets at a port of fixed rate make an M/D/1
// queue, whose mean wait before service is the Pollaczek–Khinchine value
// ρS/(2(1−ρ)) for service time S. For ρ ∈ {0.3, 0.6, 0.9} the test feeds
// mdOneWarmup packets, then mdOneBatches batches of mdOneBatch packets,
// and takes each packet's wait as its delivery time minus its arrival
// minus S (no propagation delay).
//
// The tolerance was fixed before the first run, from the batch-means
// standard error at this length: the mean over the batches must lie
// within 4 standard errors of the batch means of the P-K value, and that
// standard error must be under 5% of it, so a run too short to tell
// cannot pass. Batches of 10 000 packets are over 20 times the
// relaxation time of an M/D/1 queue at ρ = 0.9 (of order
// S/(1−√ρ)² ≈ 380 S), so their means are close to independent.
func TestPortMatchesMD1(t *testing.T) {
	const (
		mdOneWarmup  = 10_000
		mdOneBatch   = 10_000
		mdOneBatches = 30
	)
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		s := sim.New()
		total := mdOneWarmup + mdOneBatch*mdOneBatches
		arrived := make([]sim.Time, total)
		waits := make([]float64, 0, total)
		var p *Port
		p = newPort(s, newPortLanes(s), 0, 1, 1e9, 0, newDropTail(1<<30), func(pkt *Packet) {
			waits = append(waits, float64(s.Now()-arrived[pkt.ID]-p.SerializationDelay(mtu)))
		})
		S := float64(p.SerializationDelay(mtu))
		rng := stats.NewStream(int64(rho * 10))
		meanGap := S / rho
		next := 0
		at := 0.0
		var arrive sim.Handler
		arrive = func(any, int64) {
			arrived[next] = s.Now()
			p.Send(&Packet{ID: uint64(next), Size: mtu})
			next++
			if next < total {
				at += meanGap * rng.ExpFloat64()
				s.Schedule(sim.Time(math.Round(at)), arrive, nil, 0)
			}
		}
		s.Schedule(0, arrive, nil, 0)
		s.Run()
		if len(waits) != total || p.Dropped != 0 {
			t.Fatalf("ρ=%.1f: %d of %d packets delivered, %d dropped", rho, len(waits), total, p.Dropped)
		}

		means := make([]float64, mdOneBatches)
		var grand float64
		for b := range means {
			var sum float64
			for _, w := range waits[mdOneWarmup+b*mdOneBatch : mdOneWarmup+(b+1)*mdOneBatch] {
				sum += w
			}
			means[b] = sum / mdOneBatch
			grand += means[b] / mdOneBatches
		}
		var ss float64
		for _, m := range means {
			ss += (m - grand) * (m - grand)
		}
		se := math.Sqrt(ss / (mdOneBatches - 1) / mdOneBatches)
		pk := rho * S / (2 * (1 - rho))
		t.Logf("ρ=%.1f: mean wait %.4g S, P-K %.4g S, batch-means SE %.3g S (%.2f%% of P-K), |Δ| = %.2f SE",
			rho, grand/S, pk/S, se/S, 100*se/pk, math.Abs(grand-pk)/se)
		if se > 0.05*pk {
			t.Errorf("ρ=%.1f: batch-means standard error %.3g S is over 5%% of the P-K value %.4g S; the run is too short to tell", rho, se/S, pk/S)
		}
		if math.Abs(grand-pk) > 4*se {
			t.Errorf("ρ=%.1f: mean queueing delay %.4g S, P-K predicts %.4g S (|Δ| = %.2f standard errors, tolerance 4)", rho, grand/S, pk/S, math.Abs(grand-pk)/se)
		}
	}
}

// mdOneKBlocking is the blocking probability of an M/D/1/K queue (K
// packets in the system, the one in service included) at offered load
// ρ = λS, from its embedded Markov chain at departure epochs. With
// a_k = e^{−ρ}ρ^k/k! the chance of k arrivals in one service, the
// departure distribution π over 0…K−1 satisfies, for j ≤ K−2,
// π_j = π_0 a_j + Σ_{i=1}^{j+1} π_i a_{j−i+1}, which gives π_{j+1} from
// π_0…π_j. By PASTA an arrival is blocked with the time-average
// probability of a full system, 1 − 1/(π_0 + ρ).
func mdOneKBlocking(rho float64, k int) float64 {
	a := make([]float64, k)
	a[0] = math.Exp(-rho)
	for i := 1; i < k; i++ {
		a[i] = a[i-1] * rho / float64(i)
	}
	pi := make([]float64, k)
	pi[0] = 1
	for j := 0; j+1 < k; j++ {
		v := pi[j] - pi[0]*a[j]
		for i := 1; i <= j; i++ {
			v -= pi[i] * a[j-i+1]
		}
		pi[j+1] = v / a[0]
	}
	var sum float64
	for _, p := range pi {
		sum += p
	}
	return 1 - 1/(pi[0]/sum+rho)
}

// TestPortMatchesMD1K holds one drop-tail Port's loss to queueing
// theory. A port whose queue holds mdOneKQueue packets, plus the one
// being serialized, fed Poisson arrivals of 1 500 B packets is an M/D/1/K
// queue with K = mdOneKQueue+1, and the share of arrivals it drops is
// that queue's blocking probability (mdOneKBlocking). For ρ ∈ {0.5, 0.9,
// 1.2} the test offers mdOneKWarmup packets, then mdOneKBatches batches
// of mdOneKBatch packets, and takes each batch's drop fraction.
//
// The tolerance was fixed before the first run, as for the M/D/1 test:
// the mean drop fraction over the batches must lie within 4 batch-means
// standard errors of the blocking probability, and that standard error
// must be under 5% of it, so a run too short to tell cannot pass. A
// queue of 4 packets forgets its state within a few dozen service times,
// so batches of 10 000 arrivals are close to independent.
func TestPortMatchesMD1K(t *testing.T) {
	const (
		mdOneKQueue   = 3
		mdOneKWarmup  = 10_000
		mdOneKBatch   = 10_000
		mdOneKBatches = 30
	)
	for _, rho := range []float64{0.5, 0.9, 1.2} {
		s := sim.New()
		total := mdOneKWarmup + mdOneKBatch*mdOneKBatches
		dropped := make([]bool, total)
		p := newPort(s, newPortLanes(s), 0, 1, 1e9, 0, newDropTail(mdOneKQueue), func(*Packet) {})
		p.SetDropHook(func(pkt *Packet) { dropped[pkt.ID] = true })
		S := float64(p.SerializationDelay(mtu))
		rng := stats.NewStream(int64(rho*10) + 100)
		meanGap := S / rho
		next := 0
		at := 0.0
		var arrive sim.Handler
		arrive = func(any, int64) {
			p.Send(&Packet{ID: uint64(next), Size: mtu})
			next++
			if next < total {
				at += meanGap * rng.ExpFloat64()
				s.Schedule(sim.Time(math.Round(at)), arrive, nil, 0)
			}
		}
		s.Schedule(0, arrive, nil, 0)
		s.Run()
		if p.Delivered+p.Dropped != uint64(total) {
			t.Fatalf("ρ=%.1f: %d delivered and %d dropped of %d offered", rho, p.Delivered, p.Dropped, total)
		}

		fracs := make([]float64, mdOneKBatches)
		var grand float64
		for b := range fracs {
			n := 0
			for _, d := range dropped[mdOneKWarmup+b*mdOneKBatch : mdOneKWarmup+(b+1)*mdOneKBatch] {
				if d {
					n++
				}
			}
			fracs[b] = float64(n) / mdOneKBatch
			grand += fracs[b] / mdOneKBatches
		}
		var ss float64
		for _, f := range fracs {
			ss += (f - grand) * (f - grand)
		}
		se := math.Sqrt(ss / (mdOneKBatches - 1) / mdOneKBatches)
		pb := mdOneKBlocking(rho, mdOneKQueue+1)
		t.Logf("ρ=%.1f: drop fraction %.5f, M/D/1/%d blocking %.5f, batch-means SE %.3g (%.2f%% of it), |Δ| = %.2f SE",
			rho, grand, mdOneKQueue+1, pb, se, 100*se/pb, math.Abs(grand-pb)/se)
		if se > 0.05*pb {
			t.Errorf("ρ=%.1f: batch-means standard error %.3g is over 5%% of the blocking probability %.5f; the run is too short to tell", rho, se, pb)
		}
		if math.Abs(grand-pb) > 4*se {
			t.Errorf("ρ=%.1f: drop fraction %.5f, M/D/1/%d predicts %.5f (|Δ| = %.2f standard errors, tolerance 4)", rho, grand, mdOneKQueue+1, pb, math.Abs(grand-pb)/se)
		}
	}
}
