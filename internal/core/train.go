package core

import (
	"context"
	"fmt"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/obs"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

// TrainConfig controls dataset construction and model training for both
// directions.
type TrainConfig struct {
	Dataset   DatasetConfig
	Model     ml.ModelConfig // Features and Window are overwritten per spec
	TrainFrac float64        // chronological train split (default 0.8)

	// SkipCongestionFeature ablates the §5.5 congestion-state feature.
	SkipCongestionFeature bool
}

// DefaultTrainConfig returns a fast configuration suitable for the
// scaled-down experiments.
func DefaultTrainConfig() TrainConfig {
	ds := DefaultDatasetConfig()
	return TrainConfig{
		Dataset:   ds,
		Model:     ml.DefaultModelConfig(0, ds.Window),
		TrainFrac: 0.8,
	}
}

// TrainProgressFunc receives live per-epoch training progress, tagged
// with the direction being trained. Implementations must be safe for
// concurrent calls: TrainModelsContext trains both directions at once.
type TrainProgressFunc func(dir Direction, p ml.TrainProgress)

// TrainDirection fits one direction's internal model from its dataset and
// returns the runtime artifact plus held-out evaluation.
func TrainDirection(ds *Dataset, cfg TrainConfig) (*DirectionModel, ml.EvalResult, error) {
	return TrainDirectionContext(context.Background(), ds, cfg, nil, nil)
}

// TrainDirectionContext is TrainDirection with cancellation, per-epoch
// progress streaming, and — when ckpt is non-nil — durable resume: it
// loads the direction's checkpoint (if any and still applicable),
// continues training from it, and offers every epoch boundary to ckpt's
// cost-throttled saver (AsyncSaver). The produced DirectionModel is bitwise identical to
// one trained without interruption — ml's resume contract plus the
// deterministic dataset pipeline guarantee it. On cancellation the
// partially trained model is discarded and ctx's error returned.
func TrainDirectionContext(ctx context.Context, ds *Dataset, cfg TrainConfig, progress TrainProgressFunc, ckpt *TrainCheckpointer) (*DirectionModel, ml.EvalResult, error) {
	if ds.Len() == 0 {
		return nil, ml.EvalResult{}, fmt.Errorf("core: %v dataset is empty", ds.Dir)
	}
	mcfg := cfg.Model
	mcfg.Features = ds.Spec.Width()
	mcfg.Window = cfg.Dataset.Window
	model, err := ml.NewModel(mcfg)
	if err != nil {
		return nil, ml.EvalResult{}, err
	}
	train, test := ds.Split(cfg.TrainFrac)
	opts := ml.TrainOpts{}
	if progress != nil {
		dir := ds.Dir
		opts.Progress = func(p ml.TrainProgress) { progress(dir, p) }
	}
	waitCkpt := func() error { return nil }
	if ckpt != nil {
		ck, err := ckpt.Load(ds.Dir)
		if err != nil {
			return nil, ml.EvalResult{}, err
		}
		if resumable(ck, mcfg, train.Len()) {
			opts.ResumeFrom = ck
			obsCkptResumes.Inc()
		}
		opts.SaveCheckpoint, waitCkpt = ckpt.AsyncSaver(ds.Dir)
	}
	_, trainErr := model.TrainContext(ctx, train, opts)
	if werr := waitCkpt(); trainErr == nil {
		trainErr = werr
	}
	if trainErr != nil {
		return nil, ml.EvalResult{}, trainErr
	}
	if err := model.CheckFinite(); err != nil {
		return nil, ml.EvalResult{}, fmt.Errorf("core: %v training diverged: %w", ds.Dir, err)
	}
	eval := model.Evaluate(test)
	dm := &DirectionModel{Model: model, Bounds: ds.Bounds, Disc: ds.Disc}
	fitFeeder(dm, ds)
	return dm, eval, nil
}

// fitFeeder sets a direction's feeder statistics from its dataset: the
// interarrival fit and packet rate, the empirical gap bank, the replay
// bank, and the base drop/ECN rates. The rate stays 0 when the dataset
// has no positive mean gap.
func fitFeeder(dm *DirectionModel, ds *Dataset) {
	meanGap := stats.Mean(ds.Interarrivals)
	if meanGap > 0 {
		dm.RatePktsPerSec = 1 / meanGap
	}
	dm.Interarrival = stats.FitLogNormal(ds.Interarrivals, meanGap)
	dm.GapSamples = gapSubsample(ds.Interarrivals, 2048)
	dm.InfoBank = bankSubsample(ds.InfoBank, 4096)
	dm.DropRate, dm.ECNRate = ds.DropRate, ds.ECNRate
}

// gapSubsample bounds the empirical interarrival bank, mirroring
// bankSubsample for float series.
func gapSubsample(gaps []float64, max int) []float64 {
	if len(gaps) <= max {
		return append([]float64(nil), gaps...)
	}
	out := make([]float64, 0, max)
	stride := float64(len(gaps)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, gaps[int(float64(i)*stride)])
	}
	return out
}

// bankSubsample bounds the feeder replay bank (deterministic stride
// subsampling keeps temporal coverage). Like gapSubsample, it always
// copies: the result must not alias the caller's dataset bank, which
// outlives and is shared across concurrently trained models.
func bankSubsample(bank []PacketInfo, max int) []PacketInfo {
	if len(bank) <= max {
		return append([]PacketInfo(nil), bank...)
	}
	out := make([]PacketInfo, 0, max)
	stride := float64(len(bank)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, bank[int(float64(i)*stride)])
	}
	return out
}

// GenerateTrainingData runs the full-fidelity small-scale (2-cluster)
// simulation with boundary taps on the modeled cluster and returns the
// per-direction datasets (workflow step ❶, paper Figure 3).
func GenerateTrainingData(base cluster.Config, duration sim.Time, cfg TrainConfig) (ing, eg *Dataset, inst *cluster.Simulation, err error) {
	return GenerateTrainingDataContext(context.Background(), base, duration, cfg)
}

// GenerateTrainingDataContext is GenerateTrainingData with cooperative
// cancellation of the small-scale run; a cancelled run returns ctx's
// error rather than datasets built from a partial trace.
func GenerateTrainingDataContext(ctx context.Context, base cluster.Config, duration sim.Time, cfg TrainConfig) (ing, eg *Dataset, inst *cluster.Simulation, err error) {
	defer obs.StartSpan(obsPhaseDatagen).End()
	small := base
	small.Topo = base.Topo.WithClusters(2)
	small.Observable = 0
	inst, err = cluster.New(small)
	if err != nil {
		return nil, nil, nil, err
	}
	const modeled = 1 // the non-observable cluster is the one we learn
	tracer := NewTracer(inst.Topo, modeled)
	tracer.Attach(inst)
	if cancelled := inst.RunContext(ctx, duration); cancelled {
		return nil, nil, nil, ctx.Err()
	}

	if ing, eg, err = BuildDatasets(small.Topo, tracer.Records(), cfg); err != nil {
		return nil, nil, nil, err
	}
	return ing, eg, inst, nil
}

// TrainModels fits both directions and assembles the MimicModels
// artifact (workflow steps ❷–❸).
func TrainModels(ing, eg *Dataset, cfg TrainConfig) (*MimicModels, ml.EvalResult, ml.EvalResult, error) {
	return TrainModelsContext(context.Background(), ing, eg, cfg, nil, nil)
}

// TrainModelsContext fits the ingress and egress models concurrently —
// the two directions share no mutable state (each model has its own
// parameters; datasets are read-only), so this halves train wall time on
// multi-core hosts at identical per-direction results. Cancellation via
// ctx stops both trainings at their next optimizer-step boundary;
// progress, when non-nil, receives interleaved per-epoch reports tagged
// by direction. A non-nil ckpt adds durable per-direction resume: each
// direction reads and writes its own checkpoint file, so a crash that
// lands between the two directions' saves resumes each from its own
// newest epoch boundary.
func TrainModelsContext(ctx context.Context, ing, eg *Dataset, cfg TrainConfig, progress TrainProgressFunc, ckpt *TrainCheckpointer) (*MimicModels, ml.EvalResult, ml.EvalResult, error) {
	defer obs.StartSpan(obsPhaseTrain).End()
	var (
		egModel *DirectionModel
		egEval  ml.EvalResult
		egErr   error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		egModel, egEval, egErr = TrainDirectionContext(ctx, eg, cfg, progress, ckpt)
	}()
	ingModel, ingEval, ingErr := TrainDirectionContext(ctx, ing, cfg, progress, ckpt)
	<-done
	if ingErr != nil {
		return nil, ml.EvalResult{}, ml.EvalResult{}, ingErr
	}
	if egErr != nil {
		return nil, ml.EvalResult{}, ml.EvalResult{}, egErr
	}
	return &MimicModels{
		Spec:    ing.Spec,
		Window:  cfg.Dataset.Window,
		Ingress: ingModel,
		Egress:  egModel,
	}, ingEval, egEval, nil
}
