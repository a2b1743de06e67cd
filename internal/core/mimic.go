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
// non-finite weight (ml.Model.CheckFinite): batched inference is bitwise
// equal to per-packet inference only over finite weights.
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

// Outcome is the Mimic's prediction for one real packet: the cluster's
// four effects from §4.1 — whether it drops, when it egresses, where it
// egresses (deterministic from routing), and packet modifications (ECN).
type Outcome struct {
	Dropped bool
	Latency sim.Time
	ECNMark bool
}

// Mimic is the runtime shim replacing one non-observable cluster: two
// stateful internal models (ingress/egress) fed by both real boundary
// packets and feeder-generated synthetic traffic.
//
// A Mimic has two inference modes. Standalone (sched == nil), every
// boundary packet runs one model step inline via the per-packet
// StatefulModel. Attached to an InferenceScheduler, steps are deferred
// and fused with the other Mimics' steps into batched matrix–matrix
// calls — bit-identical results, delivered through the Async methods'
// callbacks at flush time.
type Mimic struct {
	Cluster int

	ing, eg *dirRuntime

	sched *InferenceScheduler
	lane  int
}

type dirRuntime struct {
	dm  *DirectionModel
	sm  *ml.StatefulModel
	ex  *Extractor
	rng *stats.Stream
}

// NewMimic instantiates the runtime for one cluster. Each Mimic gets its
// own randomness stream so compositions stay deterministic.
func NewMimic(models *MimicModels, clusterIdx int, seed int64) *Mimic {
	mk := func(dm *DirectionModel, label string) *dirRuntime {
		return &dirRuntime{
			dm:  dm,
			sm:  ml.NewStatefulModel(dm.Model),
			ex:  NewExtractor(models.Spec, dm.Bounds.Lo, dm.Bounds.Hi),
			rng: stats.NewStream(seed).Derive(fmt.Sprintf("mimic-%d-%s", clusterIdx, label)),
		}
	}
	return &Mimic{
		Cluster: clusterIdx,
		ing:     mk(models.Ingress, "ingress"),
		eg:      mk(models.Egress, "egress"),
	}
}

func (d *dirRuntime) process(info PacketInfo) Outcome {
	return d.applyPrediction(info, d.sm.Predict(d.ex.Features(info)))
}

// applyPrediction turns one raw model prediction into an Outcome: the
// drop draw, latency recovery and clamping, the ECN draw, and the
// congestion-estimator feedback. It is the post-inference half of the
// inline path, shared verbatim by the batched scheduler so both modes
// consume the direction's RNG stream identically.
func (d *dirRuntime) applyPrediction(info PacketInfo, pred ml.Prediction) Outcome {
	out := Outcome{}
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

// feed advances hidden state with a synthetic packet and discards output
// (paper §6: feeder packets are never created, sent, or routed).
func (d *dirRuntime) feed(now sim.Time) {
	if len(d.dm.InfoBank) == 0 {
		return
	}
	info := d.dm.InfoBank[d.rng.Intn(len(d.dm.InfoBank))]
	info.ArrivalTime = now
	d.sm.Advance(d.ex.Features(info))
}

// AttachScheduler routes this Mimic's model steps through a batched
// inference scheduler, registering one lane per direction model.
func (m *Mimic) AttachScheduler(s *InferenceScheduler) {
	m.sched = s
	m.lane = s.addMimic()
}

// ProcessIngress predicts the cluster's effect on a packet entering from
// a core switch toward an in-cluster host.
func (m *Mimic) ProcessIngress(info PacketInfo) Outcome { return m.ing.process(info) }

// ProcessEgress predicts the cluster's effect on a packet leaving an
// in-cluster host toward the core.
func (m *Mimic) ProcessEgress(info PacketInfo) Outcome { return m.eg.process(info) }

// resolveFunc receives the prediction for one boundary packet together
// with the packet and the description the prediction was made from. The
// engine binds one per cluster and direction when it is built, so
// deferring a model step needs no closure.
type resolveFunc func(pkt *netsim.Packet, info PacketInfo, out Outcome)

func (m *Mimic) dir(dir Direction) *dirRuntime {
	if dir == Ingress {
		return m.ing
	}
	return m.eg
}

// ProcessAsync delivers the prediction for pkt in one direction through
// fn: inline immediately when standalone, or at the next scheduler flush
// when batched. Callers must not touch the packet until fn runs.
func (m *Mimic) ProcessAsync(dir Direction, info PacketInfo, pkt *netsim.Packet, fn resolveFunc) {
	d := m.dir(dir)
	if m.sched == nil {
		fn(pkt, info, d.process(info))
		return
	}
	m.sched.enqueue(m.lane, dir, d, info, pkt, fn)
}

// Feed advances one direction's model for Mimic-Mimic traffic.
func (m *Mimic) Feed(dir Direction, now sim.Time) {
	d := m.dir(dir)
	if m.sched == nil {
		d.feed(now)
		return
	}
	if len(d.dm.InfoBank) == 0 {
		return // inline feed would be a no-op; skip the queue entirely
	}
	m.sched.enqueue(m.lane, dir, d, PacketInfo{ArrivalTime: now}, nil, nil)
}

// InferenceSteps reports total model steps executed (for Figure 23's
// compute accounting), counting both inline and batched steps.
func (m *Mimic) InferenceSteps() uint64 {
	total := m.ing.sm.Steps + m.eg.sm.Steps
	if m.sched != nil {
		total += m.sched.laneSteps(m.lane)
	}
	return total
}

// FeederGap samples the next feeder interarrival for a homogeneous
// composition of n clusters (cluster 0 observed, the rest Mimics). The
// fitted distribution describes the full external stream at small scale;
// in an n-cluster composition only the Mimic-Mimic fraction (n-2)/(n-1)
// is synthetic, so gaps stretch by the inverse (paper §4.1's
// packet-count analysis). Returns 0 if feeders are unnecessary (n <= 2).
func FeederGap(dm *DirectionModel, rng *stats.Stream, n int) sim.Time {
	if n <= 2 {
		return 0
	}
	return FeederGapFrac(dm, rng, float64(n-2)/float64(n-1))
}

// FeederGapFrac is FeederGap for an arbitrary role vector: frac is the
// fraction of a Mimic's boundary peers that are themselves Mimics (the
// share of its external traffic that must be synthesized). Returns 0
// when nothing is synthetic or the model carries no rate.
func FeederGapFrac(dm *DirectionModel, rng *stats.Stream, frac float64) sim.Time {
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
