// Package experiments regenerates every table and figure of the paper's
// evaluation (§9 and appendices) on a scaled-down but structurally
// faithful setup: the same FatTree shape, 100 Mbps / 500 µs links, and
// the same estimator line-up (MimicNet vs full-fidelity vs flow-level vs
// small-scale extrapolation). Absolute numbers differ from the paper —
// the substrate here is a Go simulator, not an OMNeT++/CloudLab testbed —
// but each experiment preserves the comparison's shape: who wins, by
// roughly what factor, and where crossovers fall.
//
// Both cmd/sweep and the repository-root benchmarks drive this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/flowsim"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
	"mimicnet/internal/transport"
	"mimicnet/internal/workload"
)

// Options scale the experiments. The defaults complete each figure in
// seconds to minutes; raising Duration/MeanFlowBytes approaches the
// paper's exact regime at proportionally higher wall-clock cost.
type Options struct {
	MeanFlowBytes float64  // mean flow size (paper: 1.6 MB)
	Load          float64  // fraction of bisection bandwidth (paper: 0.7)
	Duration      sim.Time // workload generation horizon
	RunUntil      sim.Time // simulated time to run each simulation
	Seed          int64

	Racks, HostsPerRack, Aggs, CoresPerAgg int

	// Model/training scale.
	Window     int
	Hidden     int
	Epochs     int
	SmallScale sim.Time // small-scale data-generation duration

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Default returns the scaled-down defaults used across the suite.
func Default() Options {
	return Options{
		MeanFlowBytes: 20_000,
		Load:          0.70,
		Duration:      150 * sim.Millisecond,
		RunUntil:      300 * sim.Millisecond,
		Seed:          1,
		Racks:         2, HostsPerRack: 4, Aggs: 2, CoresPerAgg: 2,
		Window: 6, Hidden: 16, Epochs: 3,
		SmallScale: 250 * sim.Millisecond,
	}
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// BaseConfig builds the cluster configuration for a protocol at 2
// clusters (callers scale it with WithClusters).
func (o Options) BaseConfig(protocol string) (cluster.Config, error) {
	p, err := transport.ByName(protocol)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig(2)
	cfg.Topo.RacksPerCluster = o.Racks
	cfg.Topo.HostsPerRack = o.HostsPerRack
	cfg.Topo.AggPerCluster = o.Aggs
	cfg.Topo.CoresPerAgg = o.CoresPerAgg
	cfg.Protocol = p
	cfg.Workload = workload.DefaultConfig(o.MeanFlowBytes)
	cfg.Workload.Duration = o.Duration
	cfg.Workload.Load = o.Load
	cfg.Workload.Seed = o.Seed
	return cfg, nil
}

// configAt is BaseConfig scaled to n clusters.
func (o Options) configAt(protocol string, n int) (cluster.Config, error) {
	cfg, err := o.BaseConfig(protocol)
	cfg.Topo = cfg.Topo.WithClusters(n)
	return cfg, err
}

// TrainConfig builds the training configuration matching the options.
func (o Options) TrainConfig() core.TrainConfig {
	tc := core.DefaultTrainConfig()
	tc.Dataset.Window = o.Window
	tc.Model = ml.DefaultModelConfig(0, o.Window)
	tc.Model.Hidden = o.Hidden
	tc.Model.Epochs = o.Epochs
	return tc
}

// Runner caches trained models per protocol so a batch of figures
// reuses one datagen and training run (the paper's fixed cost).
type Runner struct {
	Opts  Options
	cache map[string]*trained
}

// trained is one datagen + training run: the models plus what Table 2,
// Figures 11, 12 and 21–23 and the model-class ablation report about it.
type trained struct {
	models                 *core.MimicModels
	datagenWall, trainWall time.Duration
	samples                int // ingress + egress
	ingressEval            ml.EvalResult
}

// NewRunner creates a Runner.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts, cache: make(map[string]*trained)}
}

// trainedFor returns (training if needed) the Mimic models for a protocol.
func (r *Runner) trainedFor(protocol string) (*trained, error) {
	if tr, ok := r.cache[protocol]; ok {
		return tr, nil
	}
	base, err := r.Opts.BaseConfig(protocol)
	if err != nil {
		return nil, err
	}
	r.Opts.logf("training mimic models for %s ...", protocol)
	tr, err := r.train(base, r.Opts.TrainConfig())
	if err != nil {
		return nil, err
	}
	r.cache[protocol] = tr
	return tr, nil
}

// train runs datagen over the options' small-scale horizon and one
// training, for an explicit base and training configuration (used when
// a knob like DCTCP's K or the model class changes per evaluation point).
func (r *Runner) train(base cluster.Config, tcfg core.TrainConfig) (*trained, error) {
	t0 := time.Now()
	ing, eg, _, err := core.GenerateTrainingData(base, r.Opts.SmallScale, tcfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	models, ingEval, _, err := core.TrainModels(ing, eg, tcfg)
	if err != nil {
		return nil, err
	}
	return &trained{
		models:      models,
		datagenWall: t1.Sub(t0),
		trainWall:   time.Since(t1),
		samples:     ing.Len() + eg.Len(),
		ingressEval: ingEval,
	}, nil
}

// runConfigured runs an explicit full-fidelity configuration.
func runConfigured(cfg cluster.Config, until sim.Time) (cluster.Results, error) {
	inst, err := cluster.New(cfg)
	if err != nil {
		return cluster.Results{}, err
	}
	inst.Run(until)
	return inst.Results(), nil
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// runFull executes a full-fidelity simulation at n clusters.
func (r *Runner) runFull(protocol string, n int) (cluster.Results, time.Duration, error) {
	cfg, err := r.Opts.configAt(protocol, n)
	if err != nil {
		return cluster.Results{}, 0, err
	}
	inst, err := cluster.New(cfg)
	if err != nil {
		return cluster.Results{}, 0, err
	}
	t0 := time.Now()
	inst.Run(r.Opts.RunUntil)
	return inst.Results(), time.Since(t0), nil
}

// runMimic executes a MimicNet estimate at n clusters.
func (r *Runner) runMimic(protocol string, n int) (*core.Report, error) {
	tr, err := r.trainedFor(protocol)
	if err != nil {
		return nil, err
	}
	return r.estimate(protocol, n, tr.models)
}

// estimate composes models at n clusters of protocol's configuration
// and runs the estimate to the options' horizon.
func (r *Runner) estimate(protocol string, n int, models *core.MimicModels) (*core.Report, error) {
	cfg, err := r.Opts.configAt(protocol, n)
	if err != nil {
		return nil, err
	}
	return core.Estimate(context.TODO(), cfg, models, r.Opts.RunUntil, nil)
}

// runFlow executes the flow-level baseline at n clusters.
func (r *Runner) runFlow(protocol string, n int) (flowsim.Results, time.Duration, error) {
	base, err := r.Opts.BaseConfig(protocol)
	if err != nil {
		return flowsim.Results{}, 0, err
	}
	cfg := flowsim.Config{
		Topo:     base.Topo.WithClusters(n),
		Workload: base.Workload,
		LinkBps:  base.Link.RateBps,
	}
	t0 := time.Now()
	res, err := flowsim.Run(cfg, r.Opts.RunUntil)
	return res, time.Since(t0), err
}

func f3(v float64) string { return fmt.Sprintf("%.3g", v) }

func durStr(d time.Duration) string { return d.Round(time.Millisecond).String() }

func nowNanos() int64 { return time.Now().UnixNano() }
