// Package serve turns the one-shot MimicNet pipeline into a simulation-
// as-a-service layer: a job scheduler with admission control, a content-
// addressed registry of trained model artifacts, and the HTTP surface
// exposed by cmd/mimicnetd.
//
// The point is amortization (paper §1, Fig. 3): Mimics are trained once
// on a 2-cluster simulation and then answer many large-scale "what-if"
// estimates cheaply. A warm registry turns an N-cluster estimate from
// minutes of training into a compose-only run.
package serve

import (
	"fmt"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/transport"
	"mimicnet/internal/workload"
)

// JobSpec is one estimation request: the same knobs cmd/mimicnet exposes
// as flags, JSON-encoded for the daemon API. Zero values take the CLI's
// defaults (applied by Normalized), so `{"clusters": 32}` is a complete
// request.
type JobSpec struct {
	Clusters int `json:"clusters,omitempty"` // target composition size N

	// Per-cluster topology structure.
	Racks       int `json:"racks,omitempty"`
	Hosts       int `json:"hosts,omitempty"`
	Aggs        int `json:"aggs,omitempty"`
	CoresPerAgg int `json:"cores_per_agg,omitempty"`

	Protocol      string  `json:"protocol,omitempty"` // newreno|dctcp|vegas|westwood|homa
	Load          float64 `json:"load,omitempty"`
	MeanFlowBytes float64 `json:"mean_flow_bytes,omitempty"`
	ECNK          int     `json:"ecn_k,omitempty"`
	Seed          int64   `json:"seed,omitempty"`

	// Simulated-time horizons, milliseconds.
	WorkloadMs float64 `json:"workload_ms,omitempty"`  // flow generation horizon
	RunMs      float64 `json:"run_ms,omitempty"`       // final large-scale run
	SmallRunMs float64 `json:"small_run_ms,omitempty"` // data-generation run

	// Training hyper-parameters.
	Window int    `json:"window,omitempty"`
	Hidden int    `json:"hidden,omitempty"`
	Layers int    `json:"layers,omitempty"`
	Epochs int    `json:"epochs,omitempty"`
	Cell   string `json:"cell,omitempty"` // lstm|gru|mlp
	// BatchSize selects the minibatch trainer width (0 = engine default;
	// 1 = one optimizer step per sample).
	BatchSize int `json:"batch_size,omitempty"`

	// Tune, when positive, runs hyper-parameter tuning with this budget
	// before the final training; the tuned artifact is what gets cached.
	Tune       int    `json:"tune,omitempty"`
	TuneMetric string `json:"tune_metric,omitempty"` // fct|throughput|rtt

	// DeadlineMs bounds the job's wall-clock execution time (0 = none).
	// A job over deadline is cancelled cooperatively and reports partial
	// results, exactly like an explicit DELETE.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// Normalized fills zero fields with the CLI defaults.
func (s JobSpec) Normalized() JobSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&s.Clusters, 8)
	def(&s.Racks, 2)
	def(&s.Hosts, 4)
	def(&s.Aggs, 2)
	def(&s.CoresPerAgg, 2)
	def(&s.ECNK, 20)
	def(&s.Window, 12)
	def(&s.Hidden, 24)
	def(&s.Layers, 1)
	def(&s.Epochs, 4)
	if s.Protocol == "" {
		s.Protocol = "newreno"
	}
	if s.Cell == "" {
		s.Cell = "lstm"
	}
	if s.Cell == "mlp" {
		s.Layers = 1
	}
	if s.TuneMetric == "" {
		s.TuneMetric = "fct"
	}
	if s.Load == 0 {
		s.Load = 0.7
	}
	if s.MeanFlowBytes == 0 {
		s.MeanFlowBytes = 150_000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.WorkloadMs == 0 {
		s.WorkloadMs = 150
	}
	if s.RunMs == 0 {
		s.RunMs = 300
	}
	if s.SmallRunMs == 0 {
		s.SmallRunMs = 250
	}
	return s
}

// Upper bounds on what one request may ask for. A spec past any of them
// would be admitted, journaled, and then take the daemon down allocating
// in topo.New or ml.NewModel; they are limits of the service, not options.
const (
	maxSpecBytes  = 1 << 20 // POST /v1/jobs body
	maxClusters   = 1024
	maxTopoFanout = 64 // racks, hosts, aggs, cores per agg
	maxHidden     = 1024
	maxLayers     = 8
	maxWindow     = 256
	maxEpochs     = 1000
	maxBatchSize  = 4096
	maxTune       = 1000
	maxHorizonMs  = 10 * 60 * 1000 // simulated time per horizon
)

// Validate rejects structurally unusable or oversized specs before
// admission, so the queue never holds a job that cannot run. Errors name
// the offending field by its JSON key.
func (s JobSpec) Validate() error {
	if s.Clusters < 2 {
		return fmt.Errorf("serve: clusters must be >= 2, have %d", s.Clusters)
	}
	for _, b := range []struct {
		field  string
		v, max int
	}{
		{"clusters", s.Clusters, maxClusters},
		{"racks", s.Racks, maxTopoFanout},
		{"hosts", s.Hosts, maxTopoFanout},
		{"aggs", s.Aggs, maxTopoFanout},
		{"cores_per_agg", s.CoresPerAgg, maxTopoFanout},
		{"hidden", s.Hidden, maxHidden},
		{"layers", s.Layers, maxLayers},
		{"window", s.Window, maxWindow},
		{"epochs", s.Epochs, maxEpochs},
		{"batch_size", s.BatchSize, maxBatchSize},
		{"tune", s.Tune, maxTune},
	} {
		if b.v > b.max {
			return fmt.Errorf("serve: %s %d exceeds the limit of %d", b.field, b.v, b.max)
		}
	}
	for _, h := range []struct {
		field string
		ms    float64
	}{
		{"workload_ms", s.WorkloadMs},
		{"run_ms", s.RunMs},
		{"small_run_ms", s.SmallRunMs},
	} {
		if h.ms > maxHorizonMs {
			return fmt.Errorf("serve: %s %.6g exceeds the limit of %d (10 min)", h.field, h.ms, maxHorizonMs)
		}
	}
	if _, err := transport.ByName(s.Protocol); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.Load <= 0 || s.Load > 1.5 {
		return fmt.Errorf("serve: load %.3g out of range (0, 1.5]", s.Load)
	}
	if s.RunMs <= 0 || s.SmallRunMs <= 0 || s.WorkloadMs <= 0 {
		return fmt.Errorf("serve: horizons must be positive")
	}
	if s.DeadlineMs < 0 {
		return fmt.Errorf("serve: negative deadline")
	}
	base, tcfg, err := s.Configs()
	if err != nil {
		return err
	}
	if err := base.Topo.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Features is derived from the dataset at train time; validate the
	// remaining hyper-parameters with a placeholder width.
	mcfg := tcfg.Model
	mcfg.Features = 1
	if err := mcfg.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Configs translates the spec into the pipeline's native configuration:
// the 2-cluster training base plus the training config. The caller scales
// base.Topo to s.Clusters for the compose phase.
func (s JobSpec) Configs() (cluster.Config, core.TrainConfig, error) {
	p, err := transport.ByName(s.Protocol)
	if err != nil {
		return cluster.Config{}, core.TrainConfig{}, err
	}
	base := cluster.DefaultConfig(2)
	base.Topo.RacksPerCluster = s.Racks
	base.Topo.HostsPerRack = s.Hosts
	base.Topo.AggPerCluster = s.Aggs
	base.Topo.CoresPerAgg = s.CoresPerAgg
	base.Protocol = p
	base.Workload = workload.DefaultConfig(s.MeanFlowBytes)
	base.Workload.Load = s.Load
	base.Workload.Duration = msToSim(s.WorkloadMs)
	base.Workload.Seed = s.Seed
	base.ECNThresholdK = s.ECNK

	tcfg := core.DefaultTrainConfig()
	tcfg.Dataset.Window = s.Window
	tcfg.Model = ml.DefaultModelConfig(0, s.Window)
	tcfg.Model.Hidden = s.Hidden
	tcfg.Model.Layers = s.Layers
	tcfg.Model.Epochs = s.Epochs
	tcfg.Model.CellType = s.Cell
	if s.BatchSize != 0 {
		// 0 keeps DefaultModelConfig's engine default, so specs that
		// leave BatchSize unset and specs that pin it to the default
		// produce the same ModelKey.
		tcfg.Model.BatchSize = s.BatchSize
	}
	return base, tcfg, nil
}

// ModelKey returns the content address of the trained artifact this spec
// requires (core.ModelKey over the training-relevant subset; the target
// cluster count deliberately does not participate).
func (s JobSpec) ModelKey() (string, error) {
	base, tcfg, err := s.Configs()
	if err != nil {
		return "", err
	}
	extra := ""
	if s.Tune > 0 {
		extra = fmt.Sprintf("tune=%d metric=%s", s.Tune, s.TuneMetric)
	}
	return core.ModelKey(base, msToSim(s.SmallRunMs), tcfg, extra)
}

// DatasetKey returns the content address of the columnar datasets this
// spec's small-scale datagen run would produce (core.DatasetKey over the
// datagen-relevant subset). Deliberately coarser than ModelKey: specs
// that differ only in model hyper-parameters or tuning budget share one
// persisted dataset.
func (s JobSpec) DatasetKey() (string, error) {
	base, tcfg, err := s.Configs()
	if err != nil {
		return "", err
	}
	return core.DatasetKey(base, msToSim(s.SmallRunMs), tcfg)
}

func msToSim(ms float64) sim.Time { return sim.FromSeconds(ms / 1e3) }

func (s JobSpec) runTime() sim.Time      { return msToSim(s.RunMs) }
func (s JobSpec) smallRunTime() sim.Time { return msToSim(s.SmallRunMs) }

// Dist summarizes one metric distribution.
type Dist struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

func distOf(d []float64) Dist {
	if len(d) == 0 {
		return Dist{}
	}
	return Dist{
		N:    len(d),
		P50:  stats.Quantile(d, 0.5),
		P90:  stats.Quantile(d, 0.9),
		P99:  stats.Quantile(d, 0.99),
		Mean: stats.Mean(d),
	}
}

// Summary is a job's deliverable: the estimate's metric distributions
// plus the cost accounting that makes amortization visible.
type Summary struct {
	FCTSeconds    Dist `json:"fct_seconds"`
	ThroughputBps Dist `json:"throughput_Bps"`
	RTTSeconds    Dist `json:"rtt_seconds"`

	Events         uint64 `json:"events"`
	Packets        uint64 `json:"packets"`
	Drops          uint64 `json:"drops"`
	FlowsStarted   int    `json:"flows_started"`
	FlowsCompleted int    `json:"flows_completed"`

	// Cancelled marks partial results from an interrupted run.
	Cancelled bool `json:"cancelled,omitempty"`
	// CacheHit reports whether training was skipped via the registry.
	CacheHit bool `json:"cache_hit"`

	TrainMs      float64 `json:"train_ms"`   // wall-clock spent obtaining models
	ComposeMs    float64 `json:"compose_ms"` // wall-clock of the large-scale run
	SimSecPerSec float64 `json:"sim_sec_per_sec"`
}

func summarize(res cluster.Results, started, completed int, trainDur, composeDur time.Duration, simulated sim.Time, cacheHit bool) *Summary {
	s := &Summary{
		FCTSeconds:     distOf(res.FCTs),
		ThroughputBps:  distOf(res.Throughputs),
		RTTSeconds:     distOf(res.RTTs),
		Events:         res.Events,
		Packets:        res.Packets,
		Drops:          res.Drops,
		FlowsStarted:   started,
		FlowsCompleted: completed,
		Cancelled:      res.Cancelled,
		CacheHit:       cacheHit,
		TrainMs:        float64(trainDur) / float64(time.Millisecond),
		ComposeMs:      float64(composeDur) / float64(time.Millisecond),
	}
	if composeDur > 0 {
		s.SimSecPerSec = simulated.Seconds() / composeDur.Seconds()
	}
	return s
}
