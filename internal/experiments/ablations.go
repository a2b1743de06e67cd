package experiments

import (
	"fmt"
	"mimicnet/internal/core"
	"mimicnet/internal/metrics"
	"mimicnet/internal/netsim"
	"mimicnet/internal/stats"
)

// This file contains ablations beyond the paper's figures, probing the
// design choices DESIGN.md calls out: the congestion-state feature
// (§5.5), the feeder models (§6), latency-target discretization (§5.2),
// and the switch queue discipline of the substrate.

// AblationCongestionState compares compositions whose models were trained
// with and without the 4-state congestion feature.
func (r *Runner) AblationCongestionState(n int) (*Table, error) {
	truth, _, err := r.runFull("newreno", n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation A",
		Title:  fmt.Sprintf("congestion-state feature on/off (W1 to truth, %d clusters)", n),
		Header: []string{"variant", "w1_fct", "w1_rtt"},
	}
	base, tcfg0, err := r.config("newreno", 2)
	if err != nil {
		return nil, err
	}
	for _, skip := range []bool{false, true} {
		tcfg := tcfg0
		tcfg.SkipCongestionFeature = skip
		tr, err := r.train(base, tcfg)
		if err != nil {
			return nil, err
		}
		rep, err := r.estimate("newreno", n, tr.models)
		if err != nil {
			return nil, err
		}
		name := "with_congestion_state"
		if skip {
			name = "without"
		}
		t.Rows = append(t.Rows, []string{
			name,
			f3(metrics.W1(rep.Results.FCTs, truth.FCTs)),
			f3(metrics.W1(rep.Results.RTTs, truth.RTTs)),
		})
		r.logf("Ablation A %s done", name)
	}
	t.Notes = append(t.Notes,
		"the paper adds the 4-regime state so the LSTM can track multiscale congestion patterns (§5.5)")
	return t, nil
}

// AblationFeeders compares compositions with feeders enabled vs disabled
// (non-observable cross-traffic simply absent from the models' state).
func (r *Runner) AblationFeeders(n int) (*Table, error) {
	if n <= 2 {
		return nil, fmt.Errorf("experiments: feeder ablation needs n > 2")
	}
	truth, _, err := r.runFull("newreno", n)
	if err != nil {
		return nil, err
	}
	tr, err := r.trainedFor("newreno")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation B",
		Title:  fmt.Sprintf("feeder models on/off (W1 to truth, %d clusters)", n),
		Header: []string{"variant", "w1_fct", "feeder_events"},
	}
	run := func(name string, models *core.MimicModels) error {
		rep, err := r.estimate("newreno", n, models)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name,
			f3(metrics.W1(rep.Results.FCTs, truth.FCTs)),
			fmt.Sprint(rep.FeederEvents),
		})
		return nil
	}
	if err := run("with_feeders", tr.models); err != nil {
		return nil, err
	}
	// Disable feeders by zeroing the measured external rates.
	blob, err := tr.models.Save()
	if err != nil {
		return nil, err
	}
	noFeed, err := core.LoadModels(blob)
	if err != nil {
		return nil, err
	}
	noFeed.Ingress.RatePktsPerSec = 0
	noFeed.Egress.RatePktsPerSec = 0
	if err := run("without_feeders", noFeed); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"feeders keep Mimic hidden state consistent with the invisible Mimic-Mimic traffic (§6)")
	return t, nil
}

// AblationDiscretization sweeps the latency-target discretization D — the
// ML optimization the paper credits for improved latency modeling (§5.2).
func (r *Runner) AblationDiscretization(bins []int) (*Table, error) {
	t := &Table{
		ID:     "Ablation C",
		Title:  "latency discretization D vs test MAE",
		Header: []string{"D", "test_mae", "p99_latency_rel_err"},
	}
	base, tcfg0, err := r.config("newreno", 2)
	if err != nil {
		return nil, err
	}
	base.QueueCapacity = 16
	for _, d := range bins {
		tcfg := tcfg0
		tcfg.Dataset.LatencyBins = d
		ingD, _, _, err := core.GenerateTrainingData(base, r.Spec.SmallRunTime(), tcfg)
		if err != nil {
			return nil, err
		}
		dm, eval, err := core.TrainDirection(ingD, tcfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d), f3(eval.LatencyMAE), f3(tailError(dm, ingD, 0.99)),
		})
		r.logf("Ablation C D=%d done", d)
	}
	t.Notes = append(t.Notes,
		"D trades ease of modeling against recovery precision (§5.2); D<=1 disables quantization")
	return t, nil
}

// AblationQueues compares the substrate's queue disciplines under the
// same Reno workload: DropTail, ECN threshold, RED drop, RED mark.
func (r *Runner) AblationQueues(n int) (*Table, error) {
	t := &Table{
		ID:     "Ablation D",
		Title:  fmt.Sprintf("switch queue disciplines under TCP New Reno (%d clusters)", n),
		Header: []string{"queue", "p50_fct", "p99_fct", "drops"},
	}
	for _, q := range []struct {
		name    string
		factory netsim.QueueFactory
	}{
		{"droptail", netsim.DropTailFactory(100)},
		{"ecn_k20", netsim.ECNFactory(100, 20)},
		{"red_drop", netsim.REDFactory(100, 20, 60, 0.1, false, 1)},
		{"red_mark", netsim.REDFactory(100, 20, 60, 0.1, true, 1)},
	} {
		base, _, err := r.config("newreno", n)
		if err != nil {
			return nil, err
		}
		base.CustomQueue = q.factory
		res, _, err := r.runConfigured(base)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.name,
			f3(stats.Quantile(res.FCTs, 0.5)),
			f3(stats.Quantile(res.FCTs, 0.99)),
			fmt.Sprint(res.Drops),
		})
		r.logf("Ablation D %s done", q.name)
	}
	t.Notes = append(t.Notes,
		"substrate showcase: the Mimic pipeline is queue-discipline agnostic — it learns whatever the user's switches do")
	return t, nil
}

// AblationFeederDistribution compares the paper's default log-normal
// feeder interarrival fit against empirical replay of observed gaps
// ("more sophisticated feeders can be trained and parameterized", §6).
func (r *Runner) AblationFeederDistribution(n int) (*Table, error) {
	if n <= 2 {
		return nil, fmt.Errorf("experiments: feeder ablation needs n > 2")
	}
	truth, _, err := r.runFull("newreno", n)
	if err != nil {
		return nil, err
	}
	tr, err := r.trainedFor("newreno")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation E",
		Title:  fmt.Sprintf("feeder interarrival model (W1 to truth, %d clusters)", n),
		Header: []string{"feeder_dist", "w1_fct", "w1_rtt"},
	}
	for _, empirical := range []bool{false, true} {
		blob, err := tr.models.Save()
		if err != nil {
			return nil, err
		}
		models, err := core.LoadModels(blob)
		if err != nil {
			return nil, err
		}
		models.Ingress.UseEmpiricalGaps = empirical
		models.Egress.UseEmpiricalGaps = empirical
		rep, err := r.estimate("newreno", n, models)
		if err != nil {
			return nil, err
		}
		name := "lognormal"
		if empirical {
			name = "empirical"
		}
		t.Rows = append(t.Rows, []string{
			name,
			f3(metrics.W1(rep.Results.FCTs, truth.FCTs)),
			f3(metrics.W1(rep.Results.RTTs, truth.RTTs)),
		})
		r.logf("Ablation E %s done", name)
	}
	t.Notes = append(t.Notes,
		"paper: simple log-normal/Pareto fits produced reasonable interarrival approximations (§6)")
	return t, nil
}

// AblationModelClass compares trunk model classes end-to-end: the paper's
// default LSTM vs a non-recurrent windowed MLP baseline ("in principle
// MimicNet can support any ML model", §5.5).
func (r *Runner) AblationModelClass(n int) (*Table, error) {
	truth, _, err := r.runFull("newreno", n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation F",
		Title:  fmt.Sprintf("trunk model class (W1 to truth, %d clusters)", n),
		Header: []string{"cell", "w1_fct", "w1_rtt", "ingress_test_mae"},
	}
	base, tcfg0, err := r.config("newreno", 2)
	if err != nil {
		return nil, err
	}
	for _, cellType := range []string{"lstm", "mlp"} {
		tcfg := tcfg0
		tcfg.Model.CellType = cellType
		if cellType == "mlp" {
			tcfg.Model.Layers = 1
		}
		tr, err := r.train(base, tcfg)
		if err != nil {
			return nil, err
		}
		rep, err := r.estimate("newreno", n, tr.models)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cellType,
			f3(metrics.W1(rep.Results.FCTs, truth.FCTs)),
			f3(metrics.W1(rep.Results.RTTs, truth.RTTs)),
			f3(tr.ingressEval.LatencyMAE),
		})
		r.logf("Ablation F %s done", cellType)
	}
	t.Notes = append(t.Notes,
		"paper default is the LSTM; the MLP baseline quantifies what recurrence buys on long-range congestion patterns")
	return t, nil
}
