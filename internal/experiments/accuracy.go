package experiments

import (
	"fmt"

	"mimicnet/internal/metrics"
	"mimicnet/internal/stats"
)

// Fig1 reproduces Figure 1: W1 distance to ground truth of the FCT
// distribution across network sizes, for MimicNet, flow-level simulation,
// and the small-scale (2-cluster) extrapolation.
func (r *Runner) Fig1(sizes []int) (*Table, error) {
	return r.accuracyScaling("Figure 1", "W1(FCT) to ground truth vs network size", sizes, "fct")
}

// Fig8 reproduces Figure 8: throughput W1 scalability.
func (r *Runner) Fig8(sizes []int) (*Table, error) {
	return r.accuracyScaling("Figure 8", "W1(throughput) to ground truth vs network size", sizes, "throughput")
}

// Fig9 reproduces Figure 9: RTT W1 scalability (flow-level simulation is
// too coarse-grained to provide RTT).
func (r *Runner) Fig9(sizes []int) (*Table, error) {
	return r.accuracyScaling("Figure 9", "W1(RTT) to ground truth vs network size", sizes, "rtt")
}

func pickDist(kind string, fcts, tputs, rtts []float64) []float64 {
	switch kind {
	case "fct":
		return fcts
	case "throughput":
		return tputs
	default:
		return rtts
	}
}

func (r *Runner) accuracyScaling(id, title string, sizes []int, kind string) (*Table, error) {
	const protocol = "newreno"
	// Small-scale baseline: pretend the 2-cluster results hold at scale.
	smallRes, _, err := r.runFull(protocol, 2)
	if err != nil {
		return nil, err
	}
	small := pickDist(kind, smallRes.FCTs, smallRes.Throughputs, smallRes.RTTs)

	t := &Table{
		ID: id, Title: title,
		Header: []string{"#clusters", "mimicnet_w1", "flowlevel_w1", "smallscale_w1"},
	}
	if kind == "rtt" {
		t.Header = []string{"#clusters", "mimicnet_w1", "smallscale_w1"}
	}
	for _, n := range sizes {
		truthRes, _, err := r.runFull(protocol, n)
		if err != nil {
			return nil, err
		}
		truth := pickDist(kind, truthRes.FCTs, truthRes.Throughputs, truthRes.RTTs)

		mimicRes, err := r.runMimic(protocol, n)
		if err != nil {
			return nil, err
		}
		mimic := pickDist(kind, mimicRes.Results.FCTs, mimicRes.Results.Throughputs, mimicRes.Results.RTTs)

		row := []string{
			fmt.Sprint(n),
			f3(metrics.W1(mimic, truth)),
		}
		if kind != "rtt" {
			flowRes, _, err := r.runFlow(protocol, n)
			if err != nil {
				return nil, err
			}
			flow := pickDist(kind, flowRes.FCTs, flowRes.Throughputs, nil)
			row = append(row, f3(metrics.W1(flow, truth)))
		}
		row = append(row, f3(metrics.W1(small, truth)))
		t.Rows = append(t.Rows, row)
		r.logf("%s n=%d done", id, n)
	}
	t.Notes = append(t.Notes,
		"lower is better; paper Fig 1/8/9 show MimicNet flat & lowest while small-scale error grows with size")
	return t, nil
}

// Fig7 reproduces Figure 7: CDF summary of FCT/throughput/RTT for a small
// and a large composition: W1 against ground truth plus p99 relative
// error per metric and estimator.
func (r *Runner) Fig7(small, large int) (*Table, error) {
	const protocol = "newreno"
	t := &Table{
		ID:     "Figure 7",
		Title:  fmt.Sprintf("accuracy at %d and %d clusters (W1 and p99 error)", small, large),
		Header: []string{"#clusters", "metric", "estimator", "w1", "p99_rel_err"},
	}
	smallRes, _, err := r.runFull(protocol, 2)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{small, large} {
		truth, _, err := r.runFull(protocol, n)
		if err != nil {
			return nil, err
		}
		rep, err := r.runMimic(protocol, n)
		if err != nil {
			return nil, err
		}
		flow, _, err := r.runFlow(protocol, n)
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			name          string
			truth, mim    []float64
			flowD, smallD []float64
		}{
			{"fct", truth.FCTs, rep.Results.FCTs, flow.FCTs, smallRes.FCTs},
			{"throughput", truth.Throughputs, rep.Results.Throughputs, flow.Throughputs, smallRes.Throughputs},
			{"rtt", truth.RTTs, rep.Results.RTTs, nil, smallRes.RTTs},
		} {
			p99t := stats.Quantile(m.truth, 0.99)
			add := func(est string, dist []float64) {
				if len(dist) == 0 {
					return
				}
				relErr := 0.0
				if p99t != 0 {
					relErr = (stats.Quantile(dist, 0.99) - p99t) / p99t
					if relErr < 0 {
						relErr = -relErr
					}
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(n), m.name, est,
					f3(metrics.W1(dist, m.truth)), f3(relErr),
				})
			}
			add("mimicnet", m.mim)
			add("flowlevel", m.flowD)
			add("smallscale", m.smallD)
		}
		r.logf("Figure 7 n=%d done", n)
	}
	t.Notes = append(t.Notes,
		"paper: MimicNet p99s within 1.8%/3.3%/2% of truth at 128 clusters; flow-level and small-scale far worse")
	return t, nil
}

// Fig20 reproduces Figure 20 (Appendix E): FCT accuracy under a heavier
// 90% aggregate load.
func (r *Runner) Fig20(n int) (*Table, error) {
	// A fresh runner so the heavier-load models are trained on
	// heavier-load data.
	spec := r.Spec
	spec.Load = 0.90
	hr := r.fork(spec)
	truth, _, err := hr.runFull("newreno", n)
	if err != nil {
		return nil, err
	}
	rep, err := hr.runMimic("newreno", n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 20",
		Title:  fmt.Sprintf("FCT accuracy at 90%% load, %d clusters", n),
		Header: []string{"estimator", "w1_fct", "p50", "p99"},
	}
	add := func(name string, d []float64) {
		t.Rows = append(t.Rows, []string{
			name, f3(metrics.W1(d, truth.FCTs)),
			f3(stats.Quantile(d, 0.5)), f3(stats.Quantile(d, 0.99)),
		})
	}
	add("groundtruth", truth.FCTs)
	add("mimicnet", rep.Results.FCTs)
	t.Notes = append(t.Notes, "paper: W1 stays low (0.15-scale) and CDF shape is maintained at 90% load")
	return t, nil
}
