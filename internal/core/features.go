// Package core implements MimicNet itself: trace capture at cluster
// boundaries, scalable feature extraction, internal (LSTM) model training
// for ingress and egress traffic, flow-level feeder models, Mimic cluster
// shims, and the composition of one observable cluster with N−1 Mimics
// into a full-scale generative simulation (paper §4–§7).
package core

import (
	"math"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
)

// Direction distinguishes the two independently trained models
// (paper §5.5: ingress/egress decomposition).
type Direction int

// Traffic directions relative to the modeled cluster.
const (
	Ingress Direction = iota // enters from a Core switch, exits at a host
	Egress                   // enters at a host, exits toward a Core switch
)

// String names the direction.
func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// CongestionState is the coarse 4-state network regime the paper adds as
// domain knowledge to help the LSTM track multiscale patterns (§5.5).
type CongestionState int

// The four congestion regimes.
const (
	CongNone CongestionState = iota
	CongRising
	CongHigh
	CongFalling
)

// NumCongestionStates is the one-hot width of the congestion feature.
const NumCongestionStates = 4

// CongestionEstimator classifies recent latency/drop history into one of
// four regimes using fast and slow EWMAs: high absolute level ⇒ High,
// rising fast-vs-slow gap ⇒ Rising, falling gap ⇒ Falling, else None.
type CongestionEstimator struct {
	fast, slow *stats.EWMA
	drops      *stats.EWMA
	lo, hi     float64 // latency thresholds (seconds)
}

// newCongestionEstimator builds an estimator with latency thresholds
// bounding the "uncongested" and "congested" regimes.
func newCongestionEstimator(lo, hi float64) *CongestionEstimator {
	return &CongestionEstimator{
		fast:  stats.NewEWMA(0.3),
		slow:  stats.NewEWMA(0.05),
		drops: stats.NewEWMA(0.2),
		lo:    lo,
		hi:    hi,
	}
}

// Observe folds in one packet outcome (latency in seconds; dropped flag).
func (c *CongestionEstimator) Observe(latency float64, dropped bool) {
	if dropped {
		c.drops.Update(1)
		// Drops imply the queue was full: treat as max-latency evidence.
		c.fast.Update(c.hi)
		c.slow.Update(c.hi)
		return
	}
	c.drops.Update(0)
	c.fast.Update(latency)
	c.slow.Update(latency)
}

// State returns the current regime.
func (c *CongestionEstimator) State() CongestionState {
	if !c.fast.Initialized() {
		return CongNone
	}
	f, s := c.fast.Value(), c.slow.Value()
	span := c.hi - c.lo
	if span <= 0 {
		span = 1
	}
	trend := (f - s) / span
	switch {
	case f > c.hi*0.75 || c.drops.Value() > 0.05:
		return CongHigh
	case trend > 0.05:
		return CongRising
	case trend < -0.05:
		return CongFalling
	default:
		return CongNone
	}
}

// PacketInfo is the direction-independent description of one external
// packet crossing the modeled cluster's boundary, from which features are
// derived. All fields are "scalable" in the paper's sense (Table 1): their
// value, range, and semantics do not change as clusters are added.
type PacketInfo struct {
	LocalRack   int // destination (ingress) or source (egress) rack index
	LocalServer int // slot within the rack
	LocalAgg    int // aggregation switch index traversed
	Core        int // core switch index traversed (agg-group-relative * slot)
	SizeBytes   int
	IsAck       bool
	ECT         bool
	CEIn        bool // CE already set when entering the cluster
	Priority    int
	ArrivalTime sim.Time
}

// FeatureSpec fixes the one-hot layout for a topology's per-cluster
// structure. The same spec applies at any cluster count — that is the
// point of scalable features.
type FeatureSpec struct {
	Racks       int
	Servers     int // hosts per rack
	Aggs        int
	Cores       int     // total core switches (AggPerCluster * CoresPerAgg)
	TimeScale   float64 // seconds mapped to 1.0 in interarrival features
	Discretizer int     // bins for time features (0 = continuous)

	// SkipCongestion drops the 4-state congestion-regime feature —
	// an ablation of the paper's §5.5 domain-knowledge augmentation.
	SkipCongestion bool
}

// NewFeatureSpec derives the spec from a topology config.
func NewFeatureSpec(tc topo.Config) FeatureSpec {
	return FeatureSpec{
		Racks:       tc.RacksPerCluster,
		Servers:     tc.HostsPerRack,
		Aggs:        tc.AggPerCluster,
		Cores:       tc.AggPerCluster * tc.CoresPerAgg,
		TimeScale:   1e-3, // 1 ms — the natural packet-gap scale here
		Discretizer: 64,
	}
}

// Width returns the feature vector length.
func (s FeatureSpec) Width() int {
	w := s.Racks + s.Servers + s.Aggs + s.Cores + 7
	if !s.SkipCongestion {
		w += NumCongestionStates
	}
	return w
}

// Extractor converts PacketInfo to model feature vectors while tracking
// the stream state (time since last packet, its EWMA, congestion state).
// One Extractor serves one (cluster, direction) packet stream.
type Extractor struct {
	Spec FeatureSpec
	Cong *CongestionEstimator

	last     sim.Time
	haveLast bool
	gapEWMA  *stats.EWMA
}

// NewExtractor builds an extractor. congLo/congHi are the latency bounds
// (seconds) for the congestion estimator.
func NewExtractor(spec FeatureSpec, congLo, congHi float64) *Extractor {
	return &Extractor{
		Spec:    spec,
		Cong:    newCongestionEstimator(congLo, congHi),
		gapEWMA: stats.NewEWMA(0.2),
	}
}

// timeFeatureSpan is log1p(1000), timeFeature's divisor: computed once,
// not per feature row (Go does not fold the call), with the same bits.
var timeFeatureSpan = math.Log1p(1000)

// timeFeature squashes a gap (seconds) into [0,1] on a log scale and
// optionally snaps it to the spec's discretization grid (paper §5.2:
// discretizing time features trades recovery precision for learnability).
func (e *Extractor) timeFeature(gapSec float64) float64 {
	scaled := math.Log1p(gapSec/e.Spec.TimeScale) / timeFeatureSpan
	if scaled > 1 {
		scaled = 1
	}
	if e.Spec.Discretizer > 1 {
		d := ml1Discretize(scaled, e.Spec.Discretizer)
		return d
	}
	return scaled
}

func ml1Discretize(v float64, bins int) float64 {
	idx := int(v * float64(bins))
	if idx >= bins {
		idx = bins - 1
	}
	if idx < 0 {
		idx = 0
	}
	return (float64(idx) + 0.5) / float64(bins)
}

// Features builds the feature vector for a packet and advances stream
// state. The caller must feed packets in arrival order.
func (e *Extractor) Features(p PacketInfo) []float64 {
	return e.FeaturesAppend(make([]float64, 0, e.Spec.Width()), p)
}

// FeaturesAppend appends the packet's feature row to dst and returns
// it — the columnar dataset builder writes rows straight into its flat
// matrix, so building a dataset performs no per-packet allocation.
func (e *Extractor) FeaturesAppend(dst []float64, p PacketInfo) []float64 {
	s := e.Spec
	v := dst
	v = appendOneHot(v, p.LocalRack, s.Racks)
	v = appendOneHot(v, p.LocalServer, s.Servers)
	v = appendOneHot(v, p.LocalAgg, s.Aggs)
	v = appendOneHot(v, p.Core, s.Cores)

	v = append(v, float64(p.SizeBytes)/1500.0)

	gap := 0.0
	if e.haveLast {
		gap = (p.ArrivalTime - e.last).Seconds()
		if gap < 0 {
			gap = 0
		}
	}
	e.last = p.ArrivalTime
	e.haveLast = true
	gf := e.timeFeature(gap)
	v = append(v, gf)
	v = append(v, e.gapEWMA.Update(gf))

	v = append(v, b2f(p.IsAck), b2f(p.ECT), b2f(p.CEIn), float64(p.Priority)/8.0)

	if !s.SkipCongestion {
		state := e.Cong.State()
		for i := 0; i < NumCongestionStates; i++ {
			if CongestionState(i) == state {
				v = append(v, 1)
			} else {
				v = append(v, 0)
			}
		}
	}
	return v
}

// ObserveOutcome feeds the packet's eventual fate back into the
// congestion estimator (called when the matched exit/drop is known during
// training, or with the model's own prediction at inference).
func (e *Extractor) ObserveOutcome(latencySec float64, dropped bool) {
	e.Cong.Observe(latencySec, dropped)
}

func appendOneHot(v []float64, idx, n int) []float64 {
	for i := 0; i < n; i++ {
		if i == idx {
			v = append(v, 1)
		} else {
			v = append(v, 0)
		}
	}
	return v
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
