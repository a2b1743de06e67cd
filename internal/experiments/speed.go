package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/sim"
)

// Fig2 reproduces Figure 2: packet-level simulator throughput
// (simulated seconds per wall second) as the FatTree grows, with every
// cluster at full fidelity. single is the full-fidelity simulator; the
// pdes columns run the same network on the sharded runtime, one logical
// process per cluster on sim.Parallel, with 1, 2 and 4 workers. The
// paper's claim — parallel DES does not rescue a tightly coupled data
// center simulation — is measured, not assumed.
func (r *Runner) Fig2(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "Figure 2",
		Title:  "full-fidelity simulator throughput (sim-sec/sec)",
		Header: []string{"#clusters", "single", "pdes_1w", "pdes_2w", "pdes_4w"},
	}
	var barriers uint64
	for _, n := range sizes {
		row, sims, err := r.fig2Row(n)
		if err != nil {
			return nil, err
		}
		barriers = sims[0].Parallel().Barriers
		t.Rows = append(t.Rows, row)
		r.logf("Figure 2 n=%d done", n)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("pdes_Nw is cluster.NewLayered with every cluster measured, one LP per cluster (core switches on LP 0), N workers; lookahead is one link delay, so every run crosses %d barriers", barriers),
		fmt.Sprintf("host: %d CPUs, GOMAXPROCS %d", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"paper: 5 min of simulated time can take days even for small leaf-spines; parallel execution is no faster")
	return t, nil
}

// fig2Row measures Figure 2 at n clusters and returns the row with the
// sharded simulations behind its pdes cells, in column order.
func (r *Runner) fig2Row(n int) ([]string, []*cluster.Simulation, error) {
	_, fullT, err := r.runFull("newreno", n)
	if err != nil {
		return nil, nil, err
	}
	cfg, _, err := r.config("newreno", n)
	if err != nil {
		return nil, nil, err
	}
	cfg.ShardedRun = 1
	horizon := r.Spec.RunTime().Seconds()
	row := []string{fmt.Sprint(n), f3(horizon / fullT.Seconds())}
	layer := cluster.Layer{Measured: make([]bool, n), Lookahead: cfg.Link.Delay}
	for i := range layer.Measured {
		layer.Measured[i] = true
	}
	var sims []*cluster.Simulation
	for _, workers := range []int{1, 2, 4} {
		cfg.NumWorkers = workers
		inst, err := cluster.NewLayered(cfg, layer)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		inst.Run(r.Spec.RunTime())
		row = append(row, f3(horizon/time.Since(t0).Seconds()))
		sims = append(sims, inst)
	}
	return row, sims, nil
}

// Fig10 reproduces Figure 10: wall-clock speedup of a trained MimicNet
// estimate over full-fidelity simulation, across network sizes and
// racks-per-cluster.
func (r *Runner) Fig10(sizes, racksPerCluster []int) (*Table, error) {
	t := &Table{
		ID:     "Figure 10",
		Title:  "simulation speedup of MimicNet over full-fidelity",
		Header: []string{"#clusters", "racks/cluster", "full_wall", "mimic_wall", "speedup"},
	}
	for _, racks := range racksPerCluster {
		spec := r.Spec
		spec.Racks = racks
		rr := r.fork(spec)
		if _, err := rr.trainedFor("newreno"); err != nil {
			return nil, err
		}
		for _, n := range sizes {
			_, fullT, err := rr.runFull("newreno", n)
			if err != nil {
				return nil, err
			}
			mimic, err := rr.runMimic("newreno", n)
			if err != nil {
				return nil, err
			}
			speedup := fullT.Seconds() / mimic.Wall.Seconds()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(racks),
				durStr(fullT), durStr(mimic.Wall), f3(speedup),
			})
			r.logf("Figure 10 racks=%d n=%d speedup=%.1f", racks, n, speedup)
		}
	}
	t.Notes = append(t.Notes,
		"speedup excludes the fixed training cost, as in the paper; paper reaches 675x at 128 clusters (their full sims take days)")
	return t, nil
}

// Fig11 reproduces Figure 11: simulation latency (time to a full result
// set) for single/partitioned full simulation and MimicNet, with and
// without training cost.
func (r *Runner) Fig11(sizes []int) (*Table, error) {
	nPart := runtime.NumCPU()
	if nPart > 8 {
		nPart = 8
	}
	t := &Table{
		ID:    "Figure 11",
		Title: fmt.Sprintf("simulation latency, %d-way partitions (lower is better)", nPart),
		Header: []string{"#clusters", "single_sim", "single_mimic_with_train",
			"single_mimic", "partitioned_sim", "partitioned_mimic"},
	}
	for _, n := range sizes {
		_, fullT, err := r.runFull("newreno", n)
		if err != nil {
			return nil, err
		}
		tr, err := r.trainedFor("newreno")
		if err != nil {
			return nil, err
		}
		trainCost := tr.datagenWall + tr.trainWall
		mimic, err := r.runMimic("newreno", n)
		if err != nil {
			return nil, err
		}
		// Partitioned: split the simulated horizon into nPart chunks run
		// concurrently (different seeds stand in for different chunks),
		// the same split for full simulation and MimicNet.
		base, _, err := r.config("newreno", n)
		if err != nil {
			return nil, err
		}
		cfgs, chunk := partitionedConfigs(base, nPart, r.Spec.RunTime())
		partFull, partMimic, err := groupWalls(cfgs, tr.models, chunk, nPart)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), durStr(fullT), durStr(mimic.Wall + trainCost),
			durStr(mimic.Wall), durStr(partFull), durStr(partMimic),
		})
		r.logf("Figure 11 n=%d done", n)
	}
	t.Notes = append(t.Notes,
		"partitioned_sim runs one full-fidelity instance per chunk config; like single_sim it excludes instance construction",
		"partitioned_mimic is core.Estimate over the same configs and parallelism; like single_mimic it includes composition",
		"paper: with training included MimicNet wins beyond 64 clusters; without, it wins everywhere at scale")
	return t, nil
}

// Groups of simulations: the paper evaluates "partitioned" (the horizon
// split across instances) and "parallel" (independent full-horizon
// instances with different seeds) execution modes (§9.3), for full
// simulation and MimicNet alike.

// partitionedConfigs derives n configs that split the horizon of base
// into n seed-varied chunks (the partitioned mode: each instance
// simulates S/n seconds). Returns the per-instance horizon.
func partitionedConfigs(base cluster.Config, n int, horizon sim.Time) ([]cluster.Config, sim.Time) {
	chunk := sim.Time(uint64(horizon) / uint64(n))
	if chunk <= 0 {
		chunk = horizon
	}
	cfgs := parallelConfigs(base, n)
	for i := range cfgs {
		cfgs[i].Workload.Duration = min(cfgs[i].Workload.Duration, chunk)
	}
	return cfgs, chunk
}

// parallelConfigs derives n full-horizon configs with distinct seeds
// (the parallel mode, for aggregate throughput).
func parallelConfigs(base cluster.Config, n int) []cluster.Config {
	cfgs := make([]cluster.Config, n)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Workload.Seed = base.Workload.Seed + int64(i) + 1
	}
	return cfgs
}

// groupWalls times one group of cfgs run to until, at most parallelism
// at once, first at full fidelity and then as MimicNet estimates of
// models. Every full-fidelity instance is built before its clock starts,
// so an invalid config fails before any run and full excludes
// construction, as single_sim does; mimic includes composition, as
// single_mimic does.
func groupWalls(cfgs []cluster.Config, models *core.MimicModels, until sim.Time, parallelism int) (full, mimic time.Duration, err error) {
	jobs := make([]func() error, len(cfgs))
	for i, cfg := range cfgs {
		inst, err := cluster.New(cfg)
		if err != nil {
			return 0, 0, fmt.Errorf("group member %d: %w", i, err)
		}
		jobs[i] = func() error {
			inst.Run(until)
			return nil
		}
	}
	if full, err = runBounded(jobs, parallelism); err != nil {
		return 0, 0, err
	}
	for i, cfg := range cfgs {
		jobs[i] = func() error {
			_, err := core.Estimate(context.TODO(), cfg, models, until, nil)
			return err
		}
	}
	mimic, err = runBounded(jobs, parallelism)
	return full, mimic, err
}

// runBounded runs jobs with at most parallelism at once. It returns the
// time until the last one finished and every job's error, joined.
func runBounded(jobs []func() error, parallelism int) (time.Duration, error) {
	t0 := time.Now()
	sem := make(chan struct{}, parallelism)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = job()
		}()
	}
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

// Fig12 reproduces Figure 12: simulation throughput in simulated seconds
// per wall second, including parallel (nPart concurrent full-horizon)
// variants.
func (r *Runner) Fig12(sizes []int) (*Table, error) {
	nPar := runtime.NumCPU()
	if nPar > 8 {
		nPar = 8
	}
	t := &Table{
		ID:    "Figure 12",
		Title: fmt.Sprintf("simulation throughput (sim-sec/sec), %d-way parallel", nPar),
		Header: []string{"#clusters", "single_sim", "single_mimic_with_train",
			"single_mimic", "parallel_sim", "parallel_mimic"},
	}
	horizon := r.Spec.RunTime().Seconds()
	for _, n := range sizes {
		_, fullT, err := r.runFull("newreno", n)
		if err != nil {
			return nil, err
		}
		tr, err := r.trainedFor("newreno")
		if err != nil {
			return nil, err
		}
		trainCost := tr.datagenWall + tr.trainWall
		mimic, err := r.runMimic("newreno", n)
		if err != nil {
			return nil, err
		}
		base, _, err := r.config("newreno", n)
		if err != nil {
			return nil, err
		}
		parFull, parMimic, err := groupWalls(parallelConfigs(base, nPar), tr.models, r.Spec.RunTime(), nPar)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			f3(horizon / fullT.Seconds()),
			f3(horizon / (mimic.Wall + trainCost).Seconds()),
			f3(horizon / mimic.Wall.Seconds()),
			f3(float64(nPar) * horizon / parFull.Seconds()),
			f3(float64(nPar) * horizon / parMimic.Seconds()),
		})
		r.logf("Figure 12 n=%d done", n)
	}
	t.Notes = append(t.Notes,
		"parallel_sim runs one full-fidelity instance per seed config; like single_sim it excludes instance construction",
		"parallel_mimic is core.Estimate over the same configs and parallelism; like single_mimic it includes composition",
		"paper: MimicNet throughput is roughly size-independent; single full simulation degrades ~linearly with size")
	return t, nil
}

// Table2 reproduces Table 2: the wall-clock breakdown of MimicNet's
// phases versus direct full simulation at a large size.
func (r *Runner) Table2(n int) (*Table, error) {
	tr, err := r.trainedFor("newreno")
	if err != nil {
		return nil, err
	}
	mimic, err := r.runMimic("newreno", n)
	if err != nil {
		return nil, err
	}
	_, fullT, err := r.runFull("newreno", n)
	if err != nil {
		return nil, err
	}
	hosts := r.Spec.Racks * r.Spec.Hosts * n
	t := &Table{
		ID:     "Table 2",
		Title:  fmt.Sprintf("running time for %v of simulated time, %d clusters / %d hosts", r.Spec.RunTime(), n, hosts),
		Header: []string{"factor", "time"},
		Rows: [][]string{
			{"mimicnet: small-scale simulation", durStr(tr.datagenWall)},
			{"mimicnet: training", durStr(tr.trainWall)},
			{"mimicnet: large-scale simulation", durStr(mimic.Wall)},
			{"mimicnet: total", durStr(tr.datagenWall + tr.trainWall + mimic.Wall)},
			{"full simulation", durStr(fullT)},
		},
	}
	t.Notes = append(t.Notes,
		"paper (1024 hosts, 20s): 1h3m + 7h10m + 25m vs 1w4d22h for full simulation; first two rows are fixed costs")
	return t, nil
}

// Fig21 and Fig22 reproduce Appendix F: latency and throughput of the
// approaches across different simulated lengths.
func (r *Runner) Fig21And22(n int, lengths []sim.Time) (*Table, *Table, error) {
	lat := &Table{
		ID:     "Figure 21",
		Title:  fmt.Sprintf("simulation latency vs simulated length (%d clusters)", n),
		Header: []string{"sim_length", "single_sim", "single_mimic_with_train", "single_mimic"},
	}
	tput := &Table{
		ID:     "Figure 22",
		Title:  fmt.Sprintf("simulation throughput vs simulated length (%d clusters)", n),
		Header: []string{"sim_length", "single_sim", "single_mimic_with_train", "single_mimic"},
	}
	tr, err := r.trainedFor("newreno")
	if err != nil {
		return nil, nil, err
	}
	trainCost := tr.datagenWall + tr.trainWall
	for _, L := range lengths {
		spec := r.Spec
		spec.RunMs = float64(L) / float64(sim.Millisecond)
		spec.WorkloadMs = min(spec.WorkloadMs, spec.RunMs)
		rr := r.fork(spec)
		rr.cache["newreno"] = tr
		_, fullT, err := rr.runFull("newreno", n)
		if err != nil {
			return nil, nil, err
		}
		mimic, err := rr.runMimic("newreno", n)
		if err != nil {
			return nil, nil, err
		}
		lat.Rows = append(lat.Rows, []string{
			L.String(), durStr(fullT), durStr(mimic.Wall + trainCost), durStr(mimic.Wall),
		})
		sec := L.Seconds()
		tput.Rows = append(tput.Rows, []string{
			L.String(), f3(sec / fullT.Seconds()),
			f3(sec / (mimic.Wall + trainCost).Seconds()), f3(sec / mimic.Wall.Seconds()),
		})
		r.logf("Figure 21/22 length=%v done", L)
	}
	lat.Notes = append(lat.Notes, "paper: relative speeds barely change with length; MimicNet's fixed costs amortize")
	tput.Notes = append(tput.Notes, "paper: throughput is independent of simulated length for all approaches")
	return lat, tput, nil
}

// Fig23 reproduces Appendix G: total compute (FLOPs) consumed by each
// approach. Simulator work is modeled as a fixed cost per event; MimicNet
// adds LSTM training and inference FLOPs.
func (r *Runner) Fig23(sizes []int) (*Table, error) {
	const flopsPerEvent = 500.0 // switch/queue arithmetic per DES event
	t := &Table{
		ID:     "Figure 23",
		Title:  "compute consumption (GFLOPs, lower is better)",
		Header: []string{"#clusters", "single_sim", "mimic_with_train", "mimic"},
	}
	tr, err := r.trainedFor("newreno")
	if err != nil {
		return nil, err
	}
	inferFLOPs := tr.models.Ingress.Model.FLOPsPerStep()
	// Training ~ 3x inference per sample per epoch (forward + backward).
	trainFLOPs := 3 * inferFLOPs * float64(r.Spec.Window) *
		float64(tr.samples) * float64(r.Spec.Epochs)
	for _, n := range sizes {
		full, _, err := r.runFull("newreno", n)
		if err != nil {
			return nil, err
		}
		mimic, err := r.runMimic("newreno", n)
		if err != nil {
			return nil, err
		}
		fullG := float64(full.Events) * flopsPerEvent / 1e9
		mimicG := (float64(mimic.Results.Events)*flopsPerEvent +
			float64(mimic.InferenceSteps)*inferFLOPs) / 1e9
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), f3(fullG), f3(mimicG + trainFLOPs/1e9), f3(mimicG),
		})
		r.logf("Figure 23 n=%d done", n)
	}
	t.Notes = append(t.Notes,
		"paper: MimicNet consumes more compute at small scale (GPU training) but less than full simulation at 128 clusters")
	return t, nil
}
