package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
)

// modelKeyPayload is the canonical, training-relevant projection of a job
// configuration. Two jobs whose payloads marshal identically are
// guaranteed to train bitwise-identical models (everything is seeded), so
// its SHA-256 is a sound content address for a trained MimicModels blob.
//
// Deliberately excluded: the target composition size (training always
// runs at 2 clusters and MimicModels are size-independent), worker/shard
// counts, batch-window overrides, and anything else that only shapes how
// a simulation executes rather than what the models learn.
type modelKeyPayload struct {
	// Per-cluster topology structure (feature widths derive from it).
	Racks, Hosts, Aggs, Cores int

	// Network and protocol.
	Protocol string
	RateBps  float64
	DelayNs  int64
	ECNK     int
	QueueCap int

	// Workload.
	Load          float64
	MeanFlowBytes float64
	WorkloadNs    int64
	Seed          int64
	PIntraRack    float64
	PIntraCluster float64
	MinFlowBytes  int64
	MaxFlowBytes  int64

	// Data generation and dataset construction.
	SmallRunNs     int64
	Window         int
	LatencyBins    int
	TrainFrac      float64
	SkipCongestion bool

	// Model hyper-parameters (full struct: every field is trained state).
	Model ml.ModelConfig

	// Extra distinguishes otherwise-identical configs whose artifacts
	// still differ (e.g. a hyper-parameter tuning budget applied on top).
	Extra string
}

// ModelKey returns the content address of the MimicModels a training run
// over this configuration would produce: a SHA-256 over the canonical
// JSON of every training-relevant knob (topology shape, protocol, link,
// workload, seed, dataset window, model hyper-parameters, cell type).
// The serve registry stores trained blobs under this key; equal keys mean
// retraining is provably redundant.
func ModelKey(base cluster.Config, smallRun sim.Time, tcfg TrainConfig, extra string) (string, error) {
	if base.Protocol == nil {
		return "", fmt.Errorf("core: model key needs a protocol")
	}
	payload := modelKeyPayload{
		Racks: base.Topo.RacksPerCluster,
		Hosts: base.Topo.HostsPerRack,
		Aggs:  base.Topo.AggPerCluster,
		Cores: base.Topo.CoresPerAgg,

		Protocol: base.Protocol.Name(),
		RateBps:  base.Link.RateBps,
		DelayNs:  int64(base.Link.Delay),
		ECNK:     base.ECNThresholdK,
		QueueCap: base.QueueCapacity,

		Load:          base.Workload.Load,
		MeanFlowBytes: base.Workload.MeanFlowBytes,
		WorkloadNs:    int64(base.Workload.Duration),
		Seed:          base.Workload.Seed,
		PIntraRack:    base.Workload.PIntraRack,
		PIntraCluster: base.Workload.PIntraCluster,
		MinFlowBytes:  base.Workload.MinFlowBytes,
		MaxFlowBytes:  base.Workload.MaxFlowBytes,

		SmallRunNs:     int64(smallRun),
		Window:         tcfg.Dataset.Window,
		LatencyBins:    tcfg.Dataset.LatencyBins,
		TrainFrac:      tcfg.TrainFrac,
		SkipCongestion: tcfg.SkipCongestionFeature,

		Model: tcfg.Model,
		Extra: extra,
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// datasetKeyPayload is the datagen-only projection of a job
// configuration: the knobs that determine the boundary trace and its
// conversion to columnar datasets, and nothing downstream of them.
// Model hyper-parameters, TrainFrac, and tuning extras deliberately do
// NOT appear — jobs that differ only in how they train share one
// persisted dataset.
type datasetKeyPayload struct {
	Format string // dataset container magic; layout changes miss the cache

	Racks, Hosts, Aggs, Cores int

	Protocol string
	RateBps  float64
	DelayNs  int64
	ECNK     int
	QueueCap int

	Load          float64
	MeanFlowBytes float64
	WorkloadNs    int64
	Seed          int64
	PIntraRack    float64
	PIntraCluster float64
	MinFlowBytes  int64
	MaxFlowBytes  int64

	SmallRunNs     int64
	Window         int
	LatencyBins    int
	SkipCongestion bool
}

// DatasetKey returns the content address of the columnar datasets a
// small-scale datagen run over this configuration would produce (the
// run is fully seeded, so equal keys mean regenerating is provably
// redundant). It is intentionally coarser than ModelKey: many model
// keys map onto one dataset key.
func DatasetKey(base cluster.Config, smallRun sim.Time, tcfg TrainConfig) (string, error) {
	if base.Protocol == nil {
		return "", fmt.Errorf("core: dataset key needs a protocol")
	}
	payload := datasetKeyPayload{
		Format: datasetFileMagic,

		Racks: base.Topo.RacksPerCluster,
		Hosts: base.Topo.HostsPerRack,
		Aggs:  base.Topo.AggPerCluster,
		Cores: base.Topo.CoresPerAgg,

		Protocol: base.Protocol.Name(),
		RateBps:  base.Link.RateBps,
		DelayNs:  int64(base.Link.Delay),
		ECNK:     base.ECNThresholdK,
		QueueCap: base.QueueCapacity,

		Load:          base.Workload.Load,
		MeanFlowBytes: base.Workload.MeanFlowBytes,
		WorkloadNs:    int64(base.Workload.Duration),
		Seed:          base.Workload.Seed,
		PIntraRack:    base.Workload.PIntraRack,
		PIntraCluster: base.Workload.PIntraCluster,
		MinFlowBytes:  base.Workload.MinFlowBytes,
		MaxFlowBytes:  base.Workload.MaxFlowBytes,

		SmallRunNs:     int64(smallRun),
		Window:         tcfg.Dataset.Window,
		LatencyBins:    tcfg.Dataset.LatencyBins,
		SkipCongestion: tcfg.SkipCongestionFeature,
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
