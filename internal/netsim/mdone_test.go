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
