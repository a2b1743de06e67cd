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
	"mimicnet/internal/serve"
)

// Default returns the scaled-down scenario used across the suite: 20 kB
// flows, window 6, hidden 16, 3 epochs, and the spec's 150/300/250 ms
// horizons. Each figure completes in seconds to minutes; raising the
// horizons and MeanFlowBytes approaches the paper's exact regime
// (1.6 MB flows) at proportionally higher wall-clock cost.
func Default() serve.JobSpec {
	return serve.JobSpec{
		MeanFlowBytes: 20_000,
		WorkloadMs:    150,
		RunMs:         300,
		SmallRunMs:    250,
		Window:        6,
		Hidden:        16,
		Epochs:        3,
	}
}

// Runner runs the figures on one scenario and caches trained models per
// protocol, so a batch of figures reuses one datagen and training run
// (the paper's fixed cost).
type Runner struct {
	// Spec is the normalized scenario. Figures vary the protocol, the
	// cluster count and the knob they study; everything else is held
	// constant (§7.1).
	Spec serve.JobSpec
	// Log, when non-nil, receives progress lines.
	Log   io.Writer
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

// NewRunner creates a Runner over spec, normalized.
func NewRunner(spec serve.JobSpec) *Runner {
	return &Runner{Spec: spec.Normalized(), cache: make(map[string]*trained)}
}

// fork returns a Runner over another scenario, logging where r does.
func (r *Runner) fork(spec serve.JobSpec) *Runner {
	rr := NewRunner(spec)
	rr.Log = r.Log
	return rr
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// config returns the scenario's configurations for protocol, the cluster
// configuration scaled to n clusters.
func (r *Runner) config(protocol string, n int) (cluster.Config, core.TrainConfig, error) {
	s := r.Spec
	s.Protocol = protocol
	base, tcfg, err := s.Configs()
	base.Topo = base.Topo.WithClusters(n)
	return base, tcfg, err
}

// trainedFor returns (training if needed) the Mimic models for a protocol.
func (r *Runner) trainedFor(protocol string) (*trained, error) {
	if tr, ok := r.cache[protocol]; ok {
		return tr, nil
	}
	base, tcfg, err := r.config(protocol, 2)
	if err != nil {
		return nil, err
	}
	r.logf("training mimic models for %s ...", protocol)
	tr, err := r.train(base, tcfg)
	if err != nil {
		return nil, err
	}
	r.cache[protocol] = tr
	return tr, nil
}

// train runs datagen over the scenario's small-scale horizon and one
// training, for an explicit base and training configuration (used when
// a knob like DCTCP's K or the model class changes per evaluation point).
func (r *Runner) train(base cluster.Config, tcfg core.TrainConfig) (*trained, error) {
	t0 := time.Now()
	ing, eg, _, err := core.GenerateTrainingData(base, r.Spec.SmallRunTime(), tcfg)
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
	cfg, _, err := r.config(protocol, n)
	if err != nil {
		return cluster.Results{}, 0, err
	}
	return r.runConfigured(cfg)
}

// runConfigured runs an explicit full-fidelity configuration to the
// scenario's horizon; the wall-clock time excludes construction.
func (r *Runner) runConfigured(cfg cluster.Config) (cluster.Results, time.Duration, error) {
	inst, err := cluster.New(cfg)
	if err != nil {
		return cluster.Results{}, 0, err
	}
	t0 := time.Now()
	inst.Run(r.Spec.RunTime())
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
// and runs the estimate to the scenario's horizon.
func (r *Runner) estimate(protocol string, n int, models *core.MimicModels) (*core.Report, error) {
	cfg, _, err := r.config(protocol, n)
	if err != nil {
		return nil, err
	}
	return core.Estimate(context.TODO(), cfg, models, r.Spec.RunTime(), nil)
}

// runFlow executes the flow-level baseline at n clusters.
func (r *Runner) runFlow(protocol string, n int) (flowsim.Results, time.Duration, error) {
	cfg, _, err := r.config(protocol, n)
	if err != nil {
		return flowsim.Results{}, 0, err
	}
	t0 := time.Now()
	res, err := flowsim.Run(flowsim.Config{
		Topo: cfg.Topo, Workload: cfg.Workload, LinkBps: cfg.Link.RateBps,
	}, r.Spec.RunTime())
	return res, time.Since(t0), err
}

func f3(v float64) string { return fmt.Sprintf("%.3g", v) }

func durStr(d time.Duration) string { return d.Round(time.Millisecond).String() }

func nowNanos() int64 { return time.Now().UnixNano() }
