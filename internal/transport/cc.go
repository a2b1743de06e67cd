package transport

import (
	"math"

	"mimicnet/internal/sim"
)

// reno implements TCP New Reno congestion control: slow start,
// additive-increase congestion avoidance, and multiplicative decrease on
// loss. It is the paper's base configuration.
type reno struct {
	mss      float64
	cwnd     float64
	ssthresh float64
}

// newReno returns a Reno controller with a window of initWnd segments.
func newReno(mss, initWnd int) *reno {
	return &reno{
		mss:      float64(mss),
		cwnd:     float64(mss * initWnd),
		ssthresh: math.Inf(1),
	}
}

// Window returns the congestion window in bytes.
func (r *reno) Window() float64 { return r.cwnd }

// OnAck grows the window: exponentially in slow start, ~1 MSS/RTT in
// congestion avoidance.
func (r *reno) OnAck(acked int64, rtt sim.Time, ecnEcho bool) {
	if r.cwnd < r.ssthresh {
		r.cwnd += float64(acked)
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
	} else {
		r.cwnd += r.mss * float64(acked) / r.cwnd
	}
}

// OnDupAckLoss halves the window (fast recovery entry).
func (r *reno) OnDupAckLoss() {
	r.ssthresh = math.Max(r.cwnd/2, 2*r.mss)
	r.cwnd = r.ssthresh
}

// OnTimeout collapses to one segment.
func (r *reno) OnTimeout() {
	r.ssthresh = math.Max(r.cwnd/2, 2*r.mss)
	r.cwnd = r.mss
}

// dctcp implements Data Center TCP (Alizadeh et al., SIGCOMM 2010): the
// receiver echoes ECN marks, and the sender maintains an EWMA estimate α
// of the marked fraction, cutting cwnd by a factor α/2 once per window.
// Loss handling falls back to Reno behavior.
type dctcp struct {
	reno
	G     float64 // EWMA gain, paper default 1/16
	alpha float64

	ackedBytes  int64
	markedBytes int64
	windowEnd   int64 // bytes acked when the current observation window closes
	totalAcked  int64
}

// newDCTCP returns a DCTCP controller.
func newDCTCP(mss, initWnd int) *dctcp {
	return &dctcp{reno: *newReno(mss, initWnd), G: 1.0 / 16}
}

// OnAck tracks per-window ECN echo fractions and applies the α-scaled
// reduction at window boundaries, then delegates growth to Reno.
func (d *dctcp) OnAck(acked int64, rtt sim.Time, ecnEcho bool) {
	d.totalAcked += acked
	d.ackedBytes += acked
	if ecnEcho {
		d.markedBytes += acked
	}
	if d.totalAcked >= d.windowEnd {
		f := 0.0
		if d.ackedBytes > 0 {
			f = float64(d.markedBytes) / float64(d.ackedBytes)
		}
		d.alpha = (1-d.G)*d.alpha + d.G*f
		if d.markedBytes > 0 {
			d.cwnd = math.Max(d.cwnd*(1-d.alpha/2), 2*d.mss)
			d.ssthresh = d.cwnd
		}
		d.ackedBytes, d.markedBytes = 0, 0
		d.windowEnd = d.totalAcked + int64(d.cwnd)
	}
	if !ecnEcho {
		d.reno.OnAck(acked, rtt, false)
	}
}

// vegas implements TCP Vegas (Brakmo & Peterson): a delay-based protocol
// that compares actual to expected throughput each RTT and nudges cwnd to
// keep between alpha and beta packets queued in the network. It stands in
// for the recent delay-sensitive protocols (TIMELY, Swift) the paper
// cites (§9.4.2).
type vegas struct {
	reno
	AlphaPkts, BetaPkts float64 // queueing targets in packets

	baseRTT sim.Time
	rttSum  sim.Time
	rttCnt  int64
	nextAdj int64 // totalAcked threshold ending the current RTT epoch
	total   int64
}

// newVegas returns a Vegas controller with the classic alpha=2, beta=4.
func newVegas(mss, initWnd int) *vegas {
	return &vegas{reno: *newReno(mss, initWnd), AlphaPkts: 2, BetaPkts: 4}
}

// OnAck performs the per-RTT Vegas adjustment.
func (v *vegas) OnAck(acked int64, rtt sim.Time, ecnEcho bool) {
	v.total += acked
	if rtt > 0 {
		if v.baseRTT == 0 || rtt < v.baseRTT {
			v.baseRTT = rtt
		}
		v.rttSum += rtt
		v.rttCnt++
	}
	if v.total < v.nextAdj {
		// Mid-epoch: grow like slow start if below ssthresh.
		if v.cwnd < v.ssthresh {
			v.cwnd += float64(acked)
		}
		return
	}
	// Epoch boundary: apply the Vegas rule.
	if v.rttCnt > 0 && v.baseRTT > 0 {
		avgRTT := v.rttSum / sim.Time(v.rttCnt)
		expected := v.cwnd / v.baseRTT.Seconds() // bytes/sec
		actual := v.cwnd / avgRTT.Seconds()
		diffPkts := (expected - actual) * v.baseRTT.Seconds() / v.mss
		switch {
		case v.cwnd < v.ssthresh:
			// Vegas slow start: grow every other RTT unless queues build.
			if diffPkts > v.AlphaPkts {
				v.ssthresh = v.cwnd
			} else {
				v.cwnd += float64(acked)
			}
		case diffPkts < v.AlphaPkts:
			v.cwnd += v.mss
		case diffPkts > v.BetaPkts:
			v.cwnd = math.Max(v.cwnd-v.mss, 2*v.mss)
		}
	}
	v.rttSum, v.rttCnt = 0, 0
	v.nextAdj = v.total + int64(v.cwnd)
}

// westwood implements TCP Westwood(+): it estimates the eligible
// bandwidth from the ACK stream and, on loss, sets ssthresh to the
// estimated bandwidth-delay product instead of blindly halving—a
// sender-side optimization to maximize throughput (paper §9.4.2).
type westwood struct {
	reno
	bwe     float64 // bandwidth estimate, bytes/sec
	rttMin  sim.Time
	lastAck sim.Time
	now     func() sim.Time
}

// newWestwood returns a Westwood controller. now supplies the simulated
// clock for ACK interarrival measurement.
func newWestwood(mss, initWnd int, now func() sim.Time) *westwood {
	return &westwood{reno: *newReno(mss, initWnd), now: now}
}

// OnAck updates the bandwidth estimate then grows the window like Reno.
func (w *westwood) OnAck(acked int64, rtt sim.Time, ecnEcho bool) {
	t := w.now()
	if rtt > 0 && (w.rttMin == 0 || rtt < w.rttMin) {
		w.rttMin = rtt
	}
	if w.lastAck > 0 && t > w.lastAck {
		sample := float64(acked) / (t - w.lastAck).Seconds()
		// Low-pass filter (Westwood+ style EWMA).
		if w.bwe == 0 {
			w.bwe = sample
		} else {
			w.bwe = 0.9*w.bwe + 0.1*sample
		}
	}
	w.lastAck = t
	w.reno.OnAck(acked, rtt, ecnEcho)
}

func (w *westwood) bdp() float64 {
	if w.bwe == 0 || w.rttMin == 0 {
		return 0
	}
	return w.bwe * w.rttMin.Seconds()
}

// OnDupAckLoss performs faster recovery: ssthresh = BWE * RTTmin.
func (w *westwood) OnDupAckLoss() {
	if bdp := w.bdp(); bdp >= 2*w.mss {
		w.ssthresh = bdp
		w.cwnd = w.ssthresh
		return
	}
	w.reno.OnDupAckLoss()
}

// OnTimeout sets ssthresh from the bandwidth estimate and restarts from
// one segment.
func (w *westwood) OnTimeout() {
	if bdp := w.bdp(); bdp >= 2*w.mss {
		w.ssthresh = bdp
		w.cwnd = w.mss
		return
	}
	w.reno.OnTimeout()
}
