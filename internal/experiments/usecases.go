package experiments

import (
	"context"
	"fmt"
	"time"

	"mimicnet/internal/core"
	"mimicnet/internal/metrics"
	"mimicnet/internal/stats"
)

// Fig13 reproduces Figure 13 (§9.4.1): tuning DCTCP's ECN marking
// threshold K. The configuration minimizing 90-pct FCT differs between
// the 2-cluster and the large simulation; MimicNet should agree with the
// large-scale ground truth at a fraction of its cost.
func (r *Runner) Fig13(large int, ks []int) (*Table, error) {
	t := &Table{
		ID:     "Figure 13",
		Title:  fmt.Sprintf("DCTCP ECN threshold sweep: 90-pct FCT at 2 vs %d clusters", large),
		Header: []string{"K", "small_2c", fmt.Sprintf("truth_%dc", large), fmt.Sprintf("mimicnet_%dc", large)},
	}
	var fullWall, mimicWall time.Duration
	for _, k := range ks {
		baseSmall, tcfg, err := r.config("dctcp", 2)
		if err != nil {
			return nil, err
		}
		baseSmall.ECNThresholdK = k

		// Small-scale full simulation.
		small, _, err := r.runConfigured(baseSmall)
		if err != nil {
			return nil, err
		}

		// Large-scale ground truth.
		largeCfg := baseSmall
		largeCfg.Topo = baseSmall.Topo.WithClusters(large)
		t0 := time.Now()
		truth, _, err := r.runConfigured(largeCfg)
		if err != nil {
			return nil, err
		}
		fullWall += time.Since(t0)

		// MimicNet: train on the K-specific small-scale run, compose.
		t0 = time.Now()
		tr, err := r.train(baseSmall, tcfg)
		if err != nil {
			return nil, err
		}
		res, err := core.Estimate(context.TODO(), largeCfg, tr.models, r.Spec.RunTime(), nil)
		if err != nil {
			return nil, err
		}
		mimicWall += time.Since(t0)

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k),
			f3(stats.Quantile(small.FCTs, 0.9)),
			f3(stats.Quantile(truth.FCTs, 0.9)),
			f3(stats.Quantile(res.Results.FCTs, 0.9)),
		})
		r.logf("Figure 13 K=%d done", k)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("wall clock across the sweep: full %v vs mimicnet %v (incl. per-K training)", durStr(fullWall), durStr(mimicWall)),
		"paper: small scale prescribes K=60 while 32-cluster truth (and MimicNet, 12x faster) prescribe K=20")
	return t, nil
}

// Fig14 reproduces Figure 14 (§9.4.2): comparing Homa, DCTCP, TCP Vegas,
// and TCP Westwood FCTs at scale — ground truth vs MimicNet.
func (r *Runner) Fig14(large int) (*Table, error) {
	return r.protocolComparison("Figure 14", "fct", large)
}

// Fig18 reproduces Appendix D Figure 18: the same comparison on
// throughput.
func (r *Runner) Fig18(large int) (*Table, error) {
	return r.protocolComparison("Figure 18", "throughput", large)
}

// Fig19 reproduces Appendix D Figure 19: the same comparison on RTT.
func (r *Runner) Fig19(large int) (*Table, error) {
	return r.protocolComparison("Figure 19", "rtt", large)
}

func (r *Runner) protocolComparison(id, kind string, large int) (*Table, error) {
	protocols := []string{"homa", "dctcp", "vegas", "westwood"}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("protocol comparison on %s at %d clusters", kind, large),
		Header: []string{"protocol", "truth_p50", "mimic_p50", "truth_p90", "mimic_p90", "truth_p99", "mimic_p99", "w1"},
	}
	for _, proto := range protocols {
		truth, _, err := r.runFull(proto, large)
		if err != nil {
			return nil, err
		}
		rep, err := r.runMimic(proto, large)
		if err != nil {
			return nil, err
		}
		td := pickDist(kind, truth.FCTs, truth.Throughputs, truth.RTTs)
		md := pickDist(kind, rep.Results.FCTs, rep.Results.Throughputs, rep.Results.RTTs)
		t.Rows = append(t.Rows, []string{
			proto,
			f3(stats.Quantile(td, 0.5)), f3(stats.Quantile(md, 0.5)),
			f3(stats.Quantile(td, 0.9)), f3(stats.Quantile(md, 0.9)),
			f3(stats.Quantile(td, 0.99)), f3(stats.Quantile(md, 0.99)),
			f3(metrics.W1(md, td)),
		})
		r.logf("%s %s done", id, proto)
	}
	t.Notes = append(t.Notes,
		"paper: MimicNet's 90/99-pct tails are within ~5% of truth per protocol and preserve the protocols' relative order")
	return t, nil
}
