// Package metrics implements MimicNet's evaluation metrics: the
// Wasserstein-1 (earth mover's) distance between empirical CDFs, the
// MSE-over-intersection flow metric, and collectors for the three
// end-to-end observables the paper reports—flow completion time (FCT),
// per-server throughput binned into fixed intervals, and packet RTT
// (paper §7.2, §9).
package metrics

import (
	"math"
	"sort"

	"mimicnet/internal/sim"
)

// W1 computes the Wasserstein-1 distance between the empirical
// distributions of a and b: the integral of |CDF_a(x) - CDF_b(x)| dx.
// For one-dimensional empirical distributions with equal sample counts
// this reduces to the mean absolute difference of sorted samples; for
// unequal counts we integrate the CDF difference exactly over the merged
// support. Lower is better; zero means identical distributions. Empty
// inputs or inputs containing NaN yield NaN: there is no meaningful
// distance to or from an ill-defined distribution.
func W1(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	// sort.Float64s places NaNs first; without this guard the merged-
	// support walk below could never advance past one (NaN != NaN).
	if math.IsNaN(as[0]) || math.IsNaN(bs[0]) {
		return math.NaN()
	}
	if len(as) == len(bs) {
		var sum float64
		for i := range as {
			sum += math.Abs(as[i] - bs[i])
		}
		return sum / float64(len(as))
	}
	// General case: piecewise-constant CDFs integrated over merged points.
	var total float64
	i, j := 0, 0
	prev := math.Min(as[0], bs[0])
	for i < len(as) || j < len(bs) {
		var x float64
		switch {
		case i >= len(as):
			x = bs[j]
		case j >= len(bs):
			x = as[i]
		default:
			x = math.Min(as[i], bs[j])
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		total += math.Abs(fa-fb) * (x - prev)
		prev = x
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
	}
	return total
}

// FlowMSE computes MimicNet's MSE-based 1-to-1 metric over the
// intersection of flows completed in both runs (paper §7.2):
//
//	MSE = 1/|Flows| * sum_f (realFCT_f - mimicFCT_f)^2
//
// It returns the MSE and the overlap ratio |intersection| / |real flows|.
// Callers should, per the paper, discard comparisons with overlap < 0.8.
func FlowMSE(real, mimic map[string]float64) (mse, overlap float64) {
	if len(real) == 0 {
		return math.NaN(), 0
	}
	var n int
	var sum float64
	for id, rv := range real {
		mv, ok := mimic[id]
		if !ok {
			continue
		}
		d := rv - mv
		sum += d * d
		n++
	}
	overlap = float64(n) / float64(len(real))
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / float64(n), overlap
}

// MinOverlap is the default threshold below which FlowMSE comparisons are
// ignored (paper §7.2: "By default, MimicNet ignores models with overlap
// < 80%").
const MinOverlap = 0.8

// FlowRecord describes one completed (or still running) flow as observed
// at the hosts of the observable cluster.
type FlowRecord struct {
	ID       string
	SrcHost  int // global host index
	DstHost  int
	Bytes    int64
	Start    sim.Time
	End      sim.Time // zero if not yet complete
	Complete bool
}

// FCT returns the flow completion time in seconds.
func (f *FlowRecord) FCT() float64 { return (f.End - f.Start).Seconds() }

// Collector accumulates the three end-to-end metrics during a simulation
// run. It is instantiated for the hosts of the observable cluster.
type Collector struct {
	// ThroughputBin is the width of throughput accounting intervals
	// (paper: 100 ms).
	ThroughputBin sim.Time

	flows map[string]*FlowRecord
	rtts  []float64
	// bytesPerBin[host][bin] accumulates received bytes.
	bytesPerBin map[int]map[int64]int64
}

// NewCollector creates a collector with the paper's default 100 ms
// throughput bin.
func NewCollector() *Collector {
	return &Collector{
		ThroughputBin: 100 * sim.Millisecond,
		flows:         make(map[string]*FlowRecord),
		bytesPerBin:   make(map[int]map[int64]int64),
	}
}

// FlowStarted records a flow's existence and start time.
func (c *Collector) FlowStarted(id string, src, dst int, bytes int64, at sim.Time) {
	c.flows[id] = &FlowRecord{ID: id, SrcHost: src, DstHost: dst, Bytes: bytes, Start: at}
}

// FlowCompleted records a flow's completion time.
func (c *Collector) FlowCompleted(id string, at sim.Time) {
	if f, ok := c.flows[id]; ok {
		f.End = at
		f.Complete = true
	}
}

// RTTSample records one packet round-trip time in seconds (measured at the
// observable cluster's hosts from send to ACK receipt).
func (c *Collector) RTTSample(seconds float64) {
	c.rtts = append(c.rtts, seconds)
}

// BytesReceived accounts payload bytes delivered to a host at the given
// simulated time, feeding the binned per-server throughput metric.
func (c *Collector) BytesReceived(host int, n int64, at sim.Time) {
	bins, ok := c.bytesPerBin[host]
	if !ok {
		bins = make(map[int64]int64)
		c.bytesPerBin[host] = bins
	}
	bins[int64(at/c.ThroughputBin)] += n
}

// FCTs returns completion times (seconds) of all completed flows.
func (c *Collector) FCTs() []float64 {
	out := make([]float64, 0, len(c.flows))
	for _, f := range c.flows {
		if f.Complete {
			out = append(out, f.FCT())
		}
	}
	sort.Float64s(out)
	return out
}

// FCTByID returns a map from flow ID to FCT seconds for completed flows,
// the input to FlowMSE.
func (c *Collector) FCTByID() map[string]float64 {
	out := make(map[string]float64, len(c.flows))
	for id, f := range c.flows {
		if f.Complete {
			out[id] = f.FCT()
		}
	}
	return out
}

// Flows returns all flow records (completed or not).
func (c *Collector) Flows() []*FlowRecord {
	out := make([]*FlowRecord, 0, len(c.flows))
	for _, f := range c.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Throughputs returns per-server per-bin throughput samples in bytes per
// second, the distribution plotted in Figures 7b/7e.
func (c *Collector) Throughputs() []float64 {
	binSec := c.ThroughputBin.Seconds()
	var out []float64
	for _, bins := range c.bytesPerBin {
		for _, bytes := range bins {
			out = append(out, float64(bytes)/binSec)
		}
	}
	sort.Float64s(out)
	return out
}

// RTTs returns recorded RTT samples in seconds.
func (c *Collector) RTTs() []float64 {
	out := append([]float64(nil), c.rtts...)
	sort.Float64s(out)
	return out
}

// Merged combines per-shard collectors from a partitioned run into one.
// The merge is lossless when each flow's records live entirely in one
// collector (MimicNet shards by cluster, and a flow's start/completion
// are both observed at its source host's logical process) — flow maps
// then union disjointly, while RTT samples concatenate and throughput
// bins add. All query methods sort their output, so a merged collector
// reports identical distributions regardless of how samples were
// scattered across shards. The bin width is taken from the first
// collector; all inputs must agree.
func Merged(cs ...*Collector) *Collector {
	out := NewCollector()
	if len(cs) > 0 {
		out.ThroughputBin = cs[0].ThroughputBin
	}
	for _, c := range cs {
		if c.ThroughputBin != out.ThroughputBin {
			panic("metrics: Merged collectors disagree on ThroughputBin")
		}
		for id, f := range c.flows {
			cp := *f
			out.flows[id] = &cp
		}
		out.rtts = append(out.rtts, c.rtts...)
		for host, bins := range c.bytesPerBin {
			ob, ok := out.bytesPerBin[host]
			if !ok {
				ob = make(map[int64]int64, len(bins))
				out.bytesPerBin[host] = ob
			}
			for bin, n := range bins {
				ob[bin] += n
			}
		}
	}
	return out
}

// KS computes the Kolmogorov–Smirnov statistic between the empirical
// distributions of a and b: the maximum absolute CDF difference. MimicNet
// lets users supply their own accuracy metrics (§3, §7.2); KS is a
// common alternative to W1 that emphasizes the worst point of the CDF
// rather than its integral.
func KS(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	// Same NaN guard as W1: a leading NaN would stall the merge walk.
	if math.IsNaN(as[0]) || math.IsNaN(bs[0]) {
		return math.NaN()
	}
	var maxDiff float64
	i, j := 0, 0
	for i < len(as) || j < len(bs) {
		var x float64
		switch {
		case i >= len(as):
			x = bs[j]
		case j >= len(bs):
			x = as[i]
		default:
			x = math.Min(as[i], bs[j])
		}
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if d := math.Abs(fa - fb); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}
