package core

import (
	"encoding/json"
	"fmt"

	"mimicnet/internal/ml"
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

// DirectionModel is the trained artifact for one traffic direction: the
// LSTM internal model plus everything needed to run it generatively—
// latency recovery bounds, fitted interarrival distribution, and a bank
// of observed packet descriptions for the feeder (paper §5–§6).
type DirectionModel struct {
	Model  *ml.Model      `json:"model"`
	Bounds LatencyBounds  `json:"bounds"`
	Disc   ml.Discretizer `json:"disc"`

	// Interarrival is the fitted external-packet gap distribution.
	Interarrival stats.LogNormal `json:"interarrival"`
	// GapSamples holds observed interarrival gaps (seconds, subsampled).
	// When UseEmpiricalGaps is set, feeders replay these instead of the
	// parametric fit — the "more sophisticated feeders" the paper allows
	// (§6).
	GapSamples       []float64 `json:"gap_samples,omitempty"`
	UseEmpiricalGaps bool      `json:"use_empirical_gaps,omitempty"`
	// RatePktsPerSec is the measured external packet rate at small scale.
	RatePktsPerSec float64 `json:"rate"`
	// InfoBank holds observed packet descriptions for feeder replay.
	InfoBank []PacketInfo `json:"info_bank"`
	// DropRate/ECNRate are training-set base rates (reporting only).
	DropRate float64 `json:"drop_rate"`
	ECNRate  float64 `json:"ecn_rate"`
}

// MimicModels is the full trained artifact set for one cluster type.
type MimicModels struct {
	Spec    FeatureSpec     `json:"spec"`
	Window  int             `json:"window"`
	Ingress *DirectionModel `json:"ingress"`
	Egress  *DirectionModel `json:"egress"`
}

// Save serializes the models to JSON.
func (m *MimicModels) Save() ([]byte, error) { return json.Marshal(m) }

// LoadModels restores serialized models. It refuses an artifact with a
// non-finite weight (ml.Model.CheckFinite): the lane bank's row kernel is
// exact only over finite weights.
func LoadModels(b []byte) (*MimicModels, error) {
	var m MimicModels
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate checks that both directions are present and that every
// weight they carry is finite.
func (m *MimicModels) validate() error {
	if m.Ingress == nil || m.Egress == nil {
		return fmt.Errorf("core: serialized models incomplete")
	}
	for dir, dm := range [2]*DirectionModel{Ingress: m.Ingress, Egress: m.Egress} {
		if dm.Model == nil {
			continue
		}
		if err := dm.Model.CheckFinite(); err != nil {
			return fmt.Errorf("core: %v model: %w", Direction(dir), err)
		}
	}
	return nil
}

// outcome is the Mimic's prediction for one real packet: the cluster's
// four effects from §4.1 — whether it drops, when it egresses, where it
// egresses (deterministic from routing), and packet modifications (ECN).
type outcome struct {
	Dropped bool
	Latency sim.Time
	ECNMark bool
}

// mimic is the runtime shim replacing one non-observable cluster: two
// stateful internal models (ingress/egress) fed by both real boundary
// packets and feeder-generated synthetic traffic. Each direction's model
// is one lane of its inferenceScheduler's lane bank: a step is deferred
// to the scheduler's next flush, fused there with the other Mimics'
// steps, and its outcome delivered through the ProcessAsync callback.
type mimic struct {
	Cluster int

	ing, eg *dirRuntime

	sched *inferenceScheduler
}

// dirRuntime is one Mimic direction, which is one lane of its
// scheduler. Between flushes only enqueue touches it (appending to q);
// during a flush only the flush task of the lane's group does.
type dirRuntime struct {
	dm  *DirectionModel
	ex  *Extractor
	rng *stats.Stream
	dir Direction

	feed feeder // the lane's synthetic Mimic-to-Mimic traffic

	// lane is the lane's index across the scheduler, which orders its
	// continuations; bank and bankLane are its group's bank and its row
	// in it; q holds its queued requests in arrival order. During a
	// flush pos is the next request to step and took says whether a
	// feeder arrival was stepped.
	lane     int
	bank     *ml.BatchedStatefulModel
	bankLane int
	q        []schedReq
	pos      int
	took     bool
}

// newMimic instantiates the runtime for one cluster on sched, which
// gives it one lane per direction. Each Mimic gets its own randomness
// stream so compositions stay deterministic.
func newMimic(models *MimicModels, clusterIdx int, seed int64, sched *inferenceScheduler) *mimic {
	mk := func(dm *DirectionModel, dir Direction) *dirRuntime {
		return &dirRuntime{
			dm:   dm,
			ex:   NewExtractor(models.Spec, dm.Bounds.Lo, dm.Bounds.Hi),
			rng:  stats.NewStream(seed).Derive(fmt.Sprintf("mimic-%d-%s", clusterIdx, dir)),
			dir:  dir,
			feed: feeder{next: never},
		}
	}
	m := &mimic{
		Cluster: clusterIdx,
		ing:     mk(models.Ingress, Ingress),
		eg:      mk(models.Egress, Egress),
		sched:   sched,
	}
	sched.addMimic([2]*dirRuntime{Ingress: m.ing, Egress: m.eg})
	return m
}

// applyPrediction turns one raw model prediction into an outcome: the
// drop draw, latency recovery and clamping, the ECN draw, and the
// congestion-estimator feedback. A flush calls it in each lane's request
// order, so the direction's RNG stream is consumed in arrival order.
func (d *dirRuntime) applyPrediction(info PacketInfo, pred ml.Prediction) outcome {
	out := outcome{}
	if d.rng.Float64() < pred.PDrop {
		out.Dropped = true
		d.ex.ObserveOutcome(d.dm.Bounds.Hi, true)
		return out
	}
	lat := d.dm.Disc.Recover(pred.Latency)
	if lat < d.dm.Bounds.Lo {
		lat = d.dm.Bounds.Lo
	}
	if lat > d.dm.Bounds.Hi {
		lat = d.dm.Bounds.Hi
	}
	out.Latency = sim.FromSeconds(lat)
	if info.ECT && !info.CEIn {
		out.ECNMark = d.rng.Float64() < pred.PECN
	}
	d.ex.ObserveOutcome(lat, false)
	return out
}

// resolveFunc receives the prediction for one boundary packet together
// with the packet and the description the prediction was made from. The
// engine binds one per cluster and direction when it is built, so
// deferring a model step needs no closure.
type resolveFunc func(pkt *netsim.Packet, info PacketInfo, out outcome)

func (m *mimic) dir(dir Direction) *dirRuntime {
	if dir == Ingress {
		return m.ing
	}
	return m.eg
}

// ProcessAsync delivers the prediction for pkt in one direction through
// fn at the scheduler's next flush. Callers must not touch the packet
// until fn runs.
func (m *mimic) ProcessAsync(dir Direction, info PacketInfo, pkt *netsim.Packet, fn resolveFunc) {
	m.sched.enqueue(m.dir(dir), info, pkt, fn)
}

// InferenceSteps reports total model steps executed (for Figure 23's
// compute accounting).
func (m *mimic) InferenceSteps() uint64 {
	return m.ing.bank.LaneSteps[m.ing.bankLane] + m.eg.bank.LaneSteps[m.eg.bankLane]
}

// feeder is one Mimic direction's synthetic traffic (paper §6): the
// arrival times of Mimic-to-Mimic packets that are never created, drawn
// from the direction's own feeder-%d-%s stream. It is lane state, not a
// chain of kernel events: the flush of the lane's group admits the
// arrivals due by its instant and draws the gaps past them (DESIGN.md
// decision 29).
type feeder struct {
	rng   *stats.Stream // nil when the direction runs no feeder
	frac  float64
	next  sim.Time // the next unconsumed arrival; never once the chain ends
	prev  sim.Time // the arrival before next
	steps uint64   // advances taken
}

// startFeeder starts d's feeder at now, frac being the share of the
// Mimic's external traffic that is synthetic (feederGapFrac). A
// direction with an empty InfoBank has nothing to replay and runs none.
func (d *dirRuntime) startFeeder(rng *stats.Stream, frac float64, now sim.Time) {
	if len(d.dm.InfoBank) == 0 {
		return
	}
	d.feed = feeder{rng: rng, frac: frac, next: now}
	d.feed.advance(d.dm)
}

// advance moves past the next arrival, drawing the gap to the one after.
func (f *feeder) advance(dm *DirectionModel) {
	f.prev = f.next
	if gap := feederGapFrac(dm, f.rng, f.frac); gap > 0 {
		f.next += gap
	} else {
		f.next = never
	}
}

// due reports whether the next arrival joins a flush at instant at that
// was armed at armAt, tookPrev saying whether this flush already took
// the arrival before it. As a kernel event, arrival k was scheduled
// while arrival k-1 ran, so one at exactly the flush instant ran before
// the flush iff its predecessor ran before the flush was armed: it was
// consumed by an earlier flush, or its time is before armAt.
func (f *feeder) due(at, armAt sim.Time, tookPrev bool) bool {
	return f.next < at || f.next == at && (!tookPrev || f.prev < armAt)
}

// feederGapFrac samples the next feeder interarrival for one Mimic
// direction. The fitted distribution describes the full external stream
// at small scale; frac is the fraction of a Mimic's boundary peers that
// are themselves Mimics — the share of its external traffic that must be
// synthesized, (n-2)/(n-1) in the homogeneous n-cluster composition — so
// gaps stretch by its inverse (paper §4.1's packet-count analysis).
// Returns 0 when nothing is synthetic or the model carries no rate.
func feederGapFrac(dm *DirectionModel, rng *stats.Stream, frac float64) sim.Time {
	if frac <= 0 || dm.RatePktsPerSec <= 0 {
		return 0
	}
	var gap float64
	if dm.UseEmpiricalGaps && len(dm.GapSamples) > 0 {
		gap = dm.GapSamples[rng.Intn(len(dm.GapSamples))] / frac
	} else {
		gap = dm.Interarrival.Sample(rng) / frac
	}
	if gap <= 0 {
		gap = 1.0 / (dm.RatePktsPerSec * frac)
	}
	return sim.FromSeconds(gap)
}
