package experiments

import (
	"fmt"

	"mimicnet/internal/core"
	"mimicnet/internal/sim"
)

// Table1 reproduces Table 1: the basic set of scalable features and their
// one-hot/scalar widths for the configured per-cluster structure, and
// validates that the widths are invariant to the cluster count.
func (r *Runner) Table1() (*Table, error) {
	base, _, err := r.config("newreno", 2)
	if err != nil {
		return nil, err
	}
	spec := core.NewFeatureSpec(base.Topo)
	spec128 := core.NewFeatureSpec(base.Topo.WithClusters(128))
	t := &Table{
		ID:     "Table 1",
		Title:  "scalable feature set and encoded widths",
		Header: []string{"feature", "count", "encoded_width"},
		Rows: [][]string{
			{"local rack", "# racks per cluster", fmt.Sprint(spec.Racks)},
			{"local server", "# servers per rack", fmt.Sprint(spec.Servers)},
			{"local cluster switch", "# cluster switches per cluster", fmt.Sprint(spec.Aggs)},
			{"core switch traversed", "# core switches", fmt.Sprint(spec.Cores)},
			{"packet size", "single value", "1"},
			{"time since last packet", "single value (discretized)", "1"},
			{"ewma of the above", "single value (discretized)", "1"},
			{"packet type (ack)", "single value", "1"},
			{"ecn capable / marked", "two values", "2"},
			{"priority", "single value", "1"},
			{"congestion state", "4 regimes (one-hot)", fmt.Sprint(core.NumCongestionStates)},
			{"total", "", fmt.Sprint(spec.Width())},
		},
	}
	if spec.Width() != spec128.Width() {
		return nil, fmt.Errorf("experiments: feature width changed with cluster count")
	}
	// Time extraction cost per packet, the paper's argument that features
	// "can quickly be determined using only packets' headers".
	ex := core.NewExtractor(spec, 1e-3, 1e-2)
	info := core.PacketInfo{LocalRack: 1, LocalServer: 2, SizeBytes: 1500}
	const iters = 100000
	t0 := nowNanos()
	for i := 0; i < iters; i++ {
		info.ArrivalTime = sim.Time(i) * sim.Microsecond
		ex.Features(info)
	}
	nsPer := float64(nowNanos()-t0) / iters
	t.Notes = append(t.Notes,
		fmt.Sprintf("feature extraction costs %.0f ns/packet; widths verified identical at 2 and 128 clusters", nsPer))
	return t, nil
}
