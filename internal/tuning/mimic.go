package tuning

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/metrics"
	"mimicnet/internal/obs"
	"mimicnet/internal/sim"
)

// Validator implements the paper's validation protocol: run full-fidelity
// and approximated simulations on a held-out workload at 2, 4, and 8
// clusters and compare the user's target metric. The full-fidelity
// results are gathered once; each candidate model is then scored against
// them cheaply (paper §7.2).
type Validator struct {
	Base     cluster.Config
	Sizes    []int
	Duration sim.Time

	// Metric selects the comparison: "fct", "throughput", or "rtt"
	// compare distributions with W1; a "-ks" suffix (e.g. "fct-ks")
	// switches to the Kolmogorov–Smirnov statistic; "fct-mse" uses the
	// paper's MSE-over-intersection 1-to-1 flow metric (with the 80%
	// overlap requirement, §7.2). Users can define their own metrics by
	// wrapping Score.
	Metric string

	truth map[int]cluster.Results
}

// CheckMetric returns an error unless Validator.Metric accepts name.
func CheckMetric(name string) error {
	if name == "fct-mse" {
		return nil
	}
	_, err := (&Validator{Metric: name}).pick(cluster.Results{})
	return err
}

// NewValidator runs the one-time full-fidelity reference simulations on
// a held-out workload seed; an unknown metric fails before any of them.
// A cancelled ctx stops the reference run in flight and returns ctx's
// error.
func NewValidator(ctx context.Context, base cluster.Config, sizes []int, duration sim.Time, metric string) (*Validator, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8}
	}
	if metric == "" {
		metric = "fct"
	}
	if err := CheckMetric(metric); err != nil {
		return nil, err
	}
	v := &Validator{Base: base, Sizes: sizes, Duration: duration, Metric: metric,
		truth: make(map[int]cluster.Results)}
	for _, n := range sizes {
		cfg := base
		cfg.Topo = base.Topo.WithClusters(n)
		inst, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		if inst.RunContext(ctx, duration) {
			return nil, ctx.Err()
		}
		res := inst.Results()
		if v.Metric != "fct-mse" {
			if dist, _ := v.pick(res); len(dist) == 0 {
				return nil, fmt.Errorf("tuning: no %s samples in %d-cluster reference", metric, n)
			}
		} else if len(res.FCTByID) == 0 {
			return nil, fmt.Errorf("tuning: no completed flows in %d-cluster reference", n)
		}
		v.truth[n] = res
	}
	return v, nil
}

func (v *Validator) pick(r cluster.Results) ([]float64, error) {
	switch strings.TrimSuffix(v.Metric, "-ks") {
	case "fct":
		return r.FCTs, nil
	case "throughput":
		return r.Throughputs, nil
	case "rtt":
		return r.RTTs, nil
	}
	return nil, fmt.Errorf("tuning: unknown metric %q", v.Metric)
}

// statistic returns the distribution-distance function the metric names.
func (v *Validator) statistic() func(a, b []float64) float64 {
	if strings.HasSuffix(v.Metric, "-ks") {
		return metrics.KS
	}
	return metrics.W1
}

// scoreOne compares one composition's results against the reference.
func (v *Validator) scoreOne(mimic, truth cluster.Results) (float64, error) {
	if v.Metric == "fct-mse" {
		mse, overlap := metrics.FlowMSE(truth.FCTByID, mimic.FCTByID)
		if overlap < metrics.MinOverlap {
			// The paper ignores models whose flow sets diverge too far —
			// treat as a (finite but) terrible score so BO steers away.
			return math.Inf(1), nil
		}
		return mse, nil
	}
	md, err := v.pick(mimic)
	if err != nil {
		return math.Inf(1), err
	}
	td, _ := v.pick(truth)
	w := v.statistic()(md, td)
	if math.IsNaN(w) {
		return math.Inf(1), nil
	}
	return w, nil
}

// Score composes the candidate models at every validation size and
// returns the mean W1 against the ground-truth distributions (lower is
// better). Scoring across sizes is what selects for scale-generalizable
// models rather than merely well-fitted ones. A cancelled ctx returns
// ctx's error rather than a score of a partial run.
func (v *Validator) Score(ctx context.Context, models *core.MimicModels) (float64, error) {
	defer obs.StartSpan(obsPhaseValidate).End()
	var total float64
	for _, n := range v.Sizes {
		cfg := v.Base
		cfg.Topo = v.Base.Topo.WithClusters(n)
		rep, err := core.Estimate(ctx, cfg, models, v.Duration, nil)
		if err != nil {
			return math.Inf(1), err
		}
		if rep.Results.Cancelled {
			return math.Inf(1), ctx.Err()
		}
		score, err := v.scoreOne(rep.Results, v.truth[n])
		if err != nil {
			return math.Inf(1), err
		}
		if math.IsInf(score, 1) {
			// A catastrophic candidate, not an error.
			return score, nil
		}
		total += score
	}
	return total / float64(len(v.Sizes)), nil
}

// MimicSpace is the default hyper-parameter space the paper lists in
// §7.2: WBCE weight, Huber delta, LSTM layers, hidden size, epochs, and
// learning rate.
func MimicSpace() Space {
	return Space{
		{Name: "drop_weight", Lo: 0.5, Hi: 0.95},
		{Name: "huber_delta", Lo: 0.1, Hi: 10, Log: true},
		{Name: "layers", Lo: 1, Hi: 2, Integer: true},
		{Name: "hidden", Lo: 8, Hi: 48, Integer: true},
		{Name: "epochs", Lo: 2, Hi: 8, Integer: true},
		{Name: "lr", Lo: 3e-4, Hi: 1e-2, Log: true},
	}
}

// ApplyParams overlays a parameter assignment onto a training config.
func ApplyParams(cfg core.TrainConfig, params map[string]float64) core.TrainConfig {
	if v, ok := params["drop_weight"]; ok {
		cfg.Model.DropWeight = v
	}
	if v, ok := params["huber_delta"]; ok {
		cfg.Model.HuberDelta = v
	}
	if v, ok := params["layers"]; ok {
		cfg.Model.Layers = int(v)
	}
	if v, ok := params["hidden"]; ok {
		cfg.Model.Hidden = int(v)
	}
	if v, ok := params["epochs"]; ok {
		cfg.Model.Epochs = int(v)
	}
	if v, ok := params["lr"]; ok {
		cfg.Model.LR = v
	}
	return cfg
}

// MimicObjective builds an Objective that retrains models on the given
// datasets with candidate hyper-parameters and scores them end-to-end
// with the validator. The datasets and validator reference runs are built
// once and shared by every trial; trials only read them (training copies
// whatever it keeps, see bankSubsample), so the returned Objective is
// safe for the concurrent evaluation the BayesOpt warm-up performs. Once
// ctx is done every trial fails fast
// with ctx's error.
func MimicObjective(ctx context.Context, ing, eg *core.Dataset, base core.TrainConfig, v *Validator) Objective {
	return func(params map[string]float64) (float64, error) {
		cfg := ApplyParams(base, params)
		models, _, _, err := core.TrainModelsContext(ctx, ing, eg, cfg, nil, nil)
		if err != nil {
			return math.Inf(1), err
		}
		return v.Score(ctx, models)
	}
}

// TuneTraining is the §7.2 search serve.JobSpec.Train runs before its
// final training: a validator on a held-out workload (base's seed + 1000)
// at 2 and 4 clusters over the small-scale horizon, then BayesOpt over
// MimicSpace with min(4, budget) random warm-up trials evaluated across
// GOMAXPROCS workers (the worker count does not change the result) and
// the rest of the budget as acquisition steps. It returns tcfg with the
// best trial's parameters applied, and the search result. Once ctx is
// done the remaining trials fail fast and it returns ctx's error.
func TuneTraining(ctx context.Context, base cluster.Config, smallRun sim.Time, ing, eg *core.Dataset, tcfg core.TrainConfig, budget int, metric string) (core.TrainConfig, Result, error) {
	valBase := base
	valBase.Workload.Seed = base.Workload.Seed + 1000
	validator, err := NewValidator(ctx, valBase, []int{2, 4}, smallRun, metric)
	if err != nil {
		return tcfg, Result{}, err
	}
	boCfg := DefaultBayesOptConfig()
	boCfg.InitPoints = min(4, budget)
	boCfg.Iterations = budget - boCfg.InitPoints
	boCfg.Workers = runtime.GOMAXPROCS(0)
	res, err := BayesOpt(MimicSpace(), MimicObjective(ctx, ing, eg, tcfg, validator), boCfg)
	if cerr := ctx.Err(); cerr != nil {
		return tcfg, Result{}, cerr
	}
	if err != nil {
		return tcfg, Result{}, err
	}
	return ApplyParams(tcfg, res.Best.Params), res, nil
}
