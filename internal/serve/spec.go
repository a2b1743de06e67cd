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
	"context"
	"fmt"
	"math"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/transport"
	"mimicnet/internal/tuning"
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
	Cell   string `json:"cell,omitempty"` // lstm|mlp
	// BatchSize selects the minibatch trainer width (0 = engine default;
	// 1 = one optimizer step per sample).
	BatchSize int `json:"batch_size,omitempty"`

	// Tune, when positive, runs hyper-parameter tuning with this budget
	// before the final training; the tuned artifact is what gets cached.
	Tune       int    `json:"tune,omitempty"`
	TuneMetric string `json:"tune_metric,omitempty"` // fct|throughput|rtt[-ks], fct-mse

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
	// Each float must be finite and inside (lo, hi]; NaN is inside no
	// interval. A non-positive mean flow size would make the workload
	// silently swap in its own default under a different model key.
	inf := math.Inf(1)
	for _, f := range []struct {
		field     string
		v, lo, hi float64
	}{
		{"load", s.Load, 0, 1.5},
		{"mean_flow_bytes", s.MeanFlowBytes, 0, inf},
		{"workload_ms", s.WorkloadMs, 0, maxHorizonMs},
		{"run_ms", s.RunMs, 0, maxHorizonMs},
		{"small_run_ms", s.SmallRunMs, 0, maxHorizonMs},
	} {
		if !(f.v > f.lo && f.v <= f.hi) || math.IsInf(f.v, 0) {
			return fmt.Errorf("serve: %s %v outside (%g, %g]", f.field, f.v, f.lo, f.hi)
		}
	}
	if !(s.DeadlineMs >= 0) || math.IsInf(s.DeadlineMs, 0) {
		return fmt.Errorf("serve: deadline_ms %v must be finite and >= 0", s.DeadlineMs)
	}
	// A negative K would run at the default threshold under another key.
	if s.ECNK < 0 {
		return fmt.Errorf("serve: ecn_k must be >= 0, have %d", s.ECNK)
	}
	// A negative budget would silently run the job untuned.
	if s.Tune < 0 {
		return fmt.Errorf("serve: tune must be >= 0, have %d", s.Tune)
	}
	if _, err := transport.ByName(s.Protocol); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := tuning.CheckMetric(s.TuneMetric); err != nil {
		return fmt.Errorf("serve: tune_metric: %w", err)
	}
	switch s.Cell {
	case "", "lstm", "mlp":
	default:
		return fmt.Errorf("serve: cell %q unknown (supported: lstm, mlp)", s.Cell)
	}
	base, tcfg, err := s.Configs()
	if err != nil {
		return err
	}
	if err := base.Topo.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Load and horizon are bounded above; what the workload can still
	// refuse is a mean flow size too large to schedule at that load.
	wl := base.Workload
	wl.HostLinkBps = base.Link.RateBps
	if err := wl.Validate(); err != nil {
		return fmt.Errorf("serve: mean_flow_bytes %v at load %v: %w", s.MeanFlowBytes, s.Load, err)
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

// msToSim converts milliseconds to the nearest nanosecond; sim.FromSeconds
// on ms/1e3 would truncate, e.g. 1001 ms to 1 000 999 999 ns.
func msToSim(ms float64) sim.Time { return sim.Time(math.Round(ms * float64(sim.Millisecond))) }

// RunTime is the simulated horizon of the final large-scale run.
func (s JobSpec) RunTime() sim.Time { return msToSim(s.RunMs) }

// SmallRunTime is the simulated horizon of the small-scale runs: datagen,
// the tuning validator's references, and the Appendix-B role check.
func (s JobSpec) SmallRunTime() sim.Time { return msToSim(s.SmallRunMs) }

// Datasets runs the small-scale 2-cluster simulation (workflow step ❶)
// and returns the per-direction training datasets. A cancelled ctx stops
// the run and returns ctx's error.
func (s JobSpec) Datasets(ctx context.Context) (ing, eg *core.Dataset, err error) {
	base, tcfg, err := s.Configs()
	if err != nil {
		return nil, nil, err
	}
	ing, eg, _, err = core.GenerateTrainingDataContext(ctx, base, s.SmallRunTime(), tcfg)
	return ing, eg, err
}

// Training is what JobSpec.Train reports besides the models.
type Training struct {
	// IngressEval and EgressEval are the final models' held-out errors.
	IngressEval, EgressEval ml.EvalResult
	// Tuned is the best trial of the search, nil unless Tune > 0, and
	// TuneWall the search's wall-clock time.
	Tuned    *tuning.Point
	TuneWall time.Duration
}

// Train runs workflow steps ❷–❹ on the datasets: the hyper-parameter
// search when Tune > 0, then one training with the (tuned) config. ctx
// cancels either phase, progress streams the final training's epochs,
// and a non-nil ckpt makes that training durably resumable (tuning
// trials are many, short and disposable, so they are not checkpointed).
func (s JobSpec) Train(ctx context.Context, ing, eg *core.Dataset, progress core.TrainProgressFunc, ckpt *core.TrainCheckpointer) (*core.MimicModels, Training, error) {
	var tr Training
	base, tcfg, err := s.Configs()
	if err != nil {
		return nil, tr, err
	}
	if s.Tune > 0 {
		t0 := time.Now()
		var res tuning.Result
		tcfg, res, err = tuning.TuneTraining(ctx, base, s.SmallRunTime(), ing, eg, tcfg, s.Tune, s.TuneMetric)
		if err != nil {
			return nil, tr, err
		}
		tr.Tuned, tr.TuneWall = &res.Best, time.Since(t0)
	}
	models, ingEval, egEval, err := core.TrainModelsContext(ctx, ing, eg, tcfg, progress, ckpt)
	tr.IngressEval, tr.EgressEval = ingEval, egEval
	return models, tr, err
}

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

// Summary is an estimate's one result shape, from the daemon and the
// local CLI alike: the metric distributions, the counts that explain
// the run (all deterministic), plus the cost accounting that makes
// amortization visible.
type Summary struct {
	FCTSeconds    Dist `json:"fct_seconds"`
	ThroughputBps Dist `json:"throughput_Bps"`
	RTTSeconds    Dist `json:"rtt_seconds"`

	Events         uint64 `json:"events"`
	Packets        uint64 `json:"packets"`
	Drops          uint64 `json:"drops"`
	FlowsStarted   int    `json:"flows_started"`
	FlowsCompleted int    `json:"flows_completed"`

	InferenceSteps    uint64 `json:"inference_steps"`
	FeederEvents      uint64 `json:"feeder_events"`
	MimicDropsIngress uint64 `json:"mimic_drops_ingress"`
	MimicDropsEgress  uint64 `json:"mimic_drops_egress"`

	// Cancelled marks partial results from an interrupted run.
	Cancelled bool `json:"cancelled,omitempty"`
	// CacheHit reports whether training was skipped via the registry.
	CacheHit bool `json:"cache_hit"`

	TrainMs      float64 `json:"train_ms"`   // wall-clock spent obtaining models
	ComposeMs    float64 `json:"compose_ms"` // wall-clock of building and running the composition
	SimSecPerSec float64 `json:"sim_sec_per_sec"`
}

// Estimate composes s.Clusters clusters (1 real + N−1 Mimics) from
// models, runs them for run_ms through core.Estimate, and summarizes.
// TrainMs and CacheHit are left to the caller, which obtained models.
func (s JobSpec) Estimate(ctx context.Context, models *core.MimicModels, progress func(now sim.Time, events uint64)) (*Summary, error) {
	cfg, _, err := s.Configs()
	if err != nil {
		return nil, err
	}
	cfg.Topo = cfg.Topo.WithClusters(s.Clusters)
	rep, err := core.Estimate(ctx, cfg, models, s.RunTime(), progress)
	if err != nil {
		return nil, err
	}
	res := rep.Results
	sum := &Summary{
		FCTSeconds:        distOf(res.FCTs),
		ThroughputBps:     distOf(res.Throughputs),
		RTTSeconds:        distOf(res.RTTs),
		Events:            res.Events,
		Packets:           res.Packets,
		Drops:             res.Drops,
		FlowsStarted:      rep.FlowsStarted,
		FlowsCompleted:    rep.FlowsCompleted,
		InferenceSteps:    rep.InferenceSteps,
		FeederEvents:      rep.FeederEvents,
		MimicDropsIngress: rep.MimicDrops[core.Ingress],
		MimicDropsEgress:  rep.MimicDrops[core.Egress],
		Cancelled:         res.Cancelled,
		ComposeMs:         float64(rep.Wall) / float64(time.Millisecond),
	}
	if rep.Wall > 0 {
		sum.SimSecPerSec = s.RunTime().Seconds() / rep.Wall.Seconds()
	}
	return sum, nil
}
