package core

import (
	"fmt"
	"math"

	"mimicnet/internal/ml"
	"mimicnet/internal/topo"
)

// LatencyBounds are the observed in-cluster latency range used for
// normalization and discretization. Dropped packets train toward
// Hi + epsilon, i.e. the normalized value 1.0 (paper §5.2).
type LatencyBounds struct {
	Lo, Hi float64 // seconds
}

// boundsFromRecords computes the observed latency range.
func boundsFromRecords(records []*TraceRecord) LatencyBounds {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range records {
		if r.Dropped {
			continue
		}
		l := r.Latency()
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if math.IsInf(lo, 1) {
		// No successful deliveries: pick a harmless default range.
		return LatencyBounds{Lo: 0, Hi: 1e-3}
	}
	if hi <= lo {
		hi = lo + 1e-6
	}
	return LatencyBounds{Lo: lo, Hi: hi}
}

// DatasetConfig controls window construction.
type DatasetConfig struct {
	Window      int // packets per training window (paper: ~BDP packets)
	LatencyBins int // discretization D for the latency target (0 = continuous)
}

// DefaultDatasetConfig uses a 12-packet window — roughly the BDP of the
// paper's network, the knee of its accuracy/speed trade-off (Appendix C).
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{Window: 12, LatencyBins: 100}
}

// Dataset is a per-direction training set plus the metadata needed to
// reproduce feature extraction and recover latencies at inference time.
type Dataset struct {
	Dir    Direction
	Spec   FeatureSpec
	Bounds LatencyBounds
	Disc   ml.Discretizer
	// Samples is the columnar view: one contiguous row-major feature
	// matrix (each packet's features stored exactly once) plus target
	// columns, with per-sample windows expressed as index ranges.
	Samples *ml.SampleView
	// DropRate/ECNRate summarize target distributions (for reporting).
	DropRate, ECNRate float64
	// InfoBank holds the scalable packet descriptions observed in the
	// trace; feeders replay randomly drawn entries (with fresh arrival
	// times) to advance Mimic hidden state (paper §6).
	InfoBank []PacketInfo
	// Interarrivals are entry-time gaps in seconds for feeder fitting.
	Interarrivals []float64
}

// Len returns the number of training samples.
func (ds *Dataset) Len() int {
	if ds.Samples == nil {
		return 0
	}
	return ds.Samples.Len()
}

// BuildDatasets builds both directions' datasets from matched boundary
// records in entry order over the 2-cluster topology tc. A small-scale
// run's tracer and a saved trace (ReadTrace) both go through it, so
// every TrainConfig dataset option applies to either source.
func BuildDatasets(tc topo.Config, records []*TraceRecord, cfg TrainConfig) (ing, eg *Dataset, err error) {
	spec := NewFeatureSpec(tc)
	spec.SkipCongestion = cfg.SkipCongestionFeature
	ingRecs, egRecs := splitTrace(records)
	if ing, err = buildDataset(Ingress, ingRecs, spec, cfg.Dataset); err != nil {
		return nil, nil, err
	}
	if eg, err = buildDataset(Egress, egRecs, spec, cfg.Dataset); err != nil {
		return nil, nil, err
	}
	return ing, eg, nil
}

// buildDataset converts boundary trace records (entry order) into
// windowed training samples for one direction. Feature rows are
// extracted straight into the view's flat matrix — no per-sample window
// structure, no materialized padding rows, and (with the exact
// preallocation below) no growth reallocation in the hot loop.
func buildDataset(dir Direction, records []*TraceRecord, spec FeatureSpec, cfg DatasetConfig) (*Dataset, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("core: window must be >= 1")
	}
	bounds := boundsFromRecords(records)
	n := len(records)
	ds := &Dataset{
		Dir: dir, Spec: spec, Bounds: bounds,
		Disc:     ml.Discretizer{Lo: bounds.Lo, Hi: bounds.Hi, D: cfg.LatencyBins},
		InfoBank: make([]PacketInfo, 0, n),
	}
	if n > 1 {
		ds.Interarrivals = make([]float64, 0, n-1)
	}
	ex := NewExtractor(spec, bounds.Lo, bounds.Hi)
	bank := ml.NewSampleBank(spec.Width(), cfg.Window, n)
	var lastEntry float64 = -1
	var drops, ecns int
	for _, r := range records {
		bank.Feats = ex.FeaturesAppend(bank.Feats, r.Info)
		ds.InfoBank = append(ds.InfoBank, r.Info)
		if lastEntry >= 0 {
			ds.Interarrivals = append(ds.Interarrivals, r.Entry.Seconds()-lastEntry)
		}
		lastEntry = r.Entry.Seconds()

		ecn := r.CEOut && !r.Info.CEIn
		lat := 1.0 // Lmax + epsilon, normalized
		if r.Dropped {
			drops++
		} else {
			lat = ds.Disc.Normalize(r.Latency())
		}
		if ecn {
			ecns++
		}
		bank.PushTarget(lat, r.Dropped, ecn)

		// The training-time congestion estimator sees ground truth.
		if r.Dropped {
			ex.ObserveOutcome(bounds.Hi, true)
		} else {
			ex.ObserveOutcome(r.Latency(), false)
		}
	}
	ds.Samples = bank
	if n > 0 {
		ds.DropRate = float64(drops) / float64(n)
		ds.ECNRate = float64(ecns) / float64(n)
	}
	observeDatasetBuilt(dir, ds)
	return ds, nil
}

// Split divides samples chronologically into train and test sets (time
// series must not leak future into past). The two views share the full
// feature matrix, so the test split's early windows still see their
// pre-cut history — exactly what the legacy layout materialized into
// each sample's padded window.
func (ds *Dataset) Split(trainFrac float64) (train, test *ml.SampleView) {
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.8
	}
	n := ds.Len()
	cut := int(float64(n) * trainFrac)
	return ds.Samples.Slice(0, cut), ds.Samples.Slice(cut, n)
}
