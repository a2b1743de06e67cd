// Command mimicnet runs the end-to-end MimicNet workflow (paper Fig. 3):
//
//  1. full-fidelity 2-cluster simulation to generate training data,
//  2. internal-model training (+ feeder fitting),
//  3. optional hyper-parameter tuning against held-out validation runs,
//  4. composition of 1 real + N−1 Mimic clusters,
//  5. the large-scale approximate simulation.
//
// Trained models can be saved and reused across invocations (-save /
// -models), mirroring the paper's "single MimicNet" vs "with training"
// distinction.
//
// Example:
//
//	mimicnet -clusters 32 -protocol dctcp -run 300ms -save models.json
//	mimicnet -clusters 128 -models models.json
//
// With -server, the whole pipeline instead runs on a mimicnetd daemon
// (see cmd/mimicnetd), whose content-addressed registry amortizes
// training across invocations and users:
//
//	mimicnet -server http://127.0.0.1:9090 -clusters 128 -protocol dctcp
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/ml"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/transport"
	"mimicnet/internal/tuning"
	"mimicnet/internal/workload"
)

func main() {
	var (
		clusters  = flag.Int("clusters", 8, "target composition size (N)")
		racks     = flag.Int("racks", 2, "racks per cluster")
		hosts     = flag.Int("hosts", 4, "hosts per rack")
		aggs      = flag.Int("aggs", 2, "aggregation switches per cluster")
		cores     = flag.Int("cores-per-agg", 2, "core switches per agg index")
		protocol  = flag.String("protocol", "newreno", "transport: newreno|dctcp|vegas|westwood|homa")
		load      = flag.Float64("load", 0.7, "offered load")
		meanFlow  = flag.Float64("mean-flow", 150_000, "mean flow size in bytes")
		duration  = flag.Duration("duration", 150*time.Millisecond, "workload horizon (simulated)")
		run       = flag.Duration("run", 300*time.Millisecond, "simulated time for the final simulation")
		smallRun  = flag.Duration("small-run", 250*time.Millisecond, "simulated time for data generation")
		seed      = flag.Int64("seed", 1, "workload seed")
		ecnK      = flag.Int("ecn-k", 20, "ECN marking threshold (DCTCP)")
		window    = flag.Int("window", 12, "training window in packets (~BDP)")
		hidden    = flag.Int("hidden", 24, "LSTM hidden size")
		layers    = flag.Int("layers", 1, "stacked LSTM layers")
		epochs    = flag.Int("epochs", 4, "training epochs")
		batch     = flag.Int("batch", 0, "training minibatch size (0 = engine default, 1 = one optimizer step per sample)")
		cellType  = flag.String("cell", "lstm", "trunk model class: lstm|gru|mlp")
		tune      = flag.Int("tune", 0, "hyper-parameter tuning budget (0 = off)")
		tuneSizes = flag.String("tune-metric", "fct", "tuning metric: fct|throughput|rtt")
		savePath  = flag.String("save", "", "write trained models to this JSON file")
		loadPath  = flag.String("models", "", "reuse trained models from this JSON file")
		tracePath = flag.String("trace", "", "train from a saved boundary trace (see cmd/trace)")
		validate  = flag.Bool("validate-directions", false, "run the Appendix-B hybrid per-direction validation before composing")
		server    = flag.String("server", "", "delegate to a mimicnetd daemon at this base URL instead of running locally")
		deadline  = flag.Duration("deadline", 0, "with -server: wall-clock bound on the remote job (0 = none)")
	)
	flag.Parse()

	if *server != "" {
		if *loadPath != "" || *savePath != "" || *tracePath != "" || *validate {
			fatal(fmt.Errorf("-server cannot be combined with -models/-save/-trace/-validate-directions; the daemon manages artifacts via its registry"))
		}
		runRemote(*server, serve.JobSpec{
			Clusters:      *clusters,
			Racks:         *racks,
			Hosts:         *hosts,
			Aggs:          *aggs,
			CoresPerAgg:   *cores,
			Protocol:      *protocol,
			Load:          *load,
			MeanFlowBytes: *meanFlow,
			ECNK:          *ecnK,
			Seed:          *seed,
			WorkloadMs:    float64(*duration) / float64(time.Millisecond),
			RunMs:         float64(*run) / float64(time.Millisecond),
			SmallRunMs:    float64(*smallRun) / float64(time.Millisecond),
			Window:        *window,
			Hidden:        *hidden,
			Layers:        *layers,
			Epochs:        *epochs,
			BatchSize:     *batch,
			Cell:          *cellType,
			Tune:          *tune,
			TuneMetric:    *tuneSizes,
			DeadlineMs:    float64(*deadline) / float64(time.Millisecond),
		})
		return
	}

	p, err := transport.ByName(*protocol)
	fatal(err)

	base := cluster.DefaultConfig(2)
	base.Topo.RacksPerCluster = *racks
	base.Topo.HostsPerRack = *hosts
	base.Topo.AggPerCluster = *aggs
	base.Topo.CoresPerAgg = *cores
	base.Protocol = p
	base.Workload = workload.DefaultConfig(*meanFlow)
	base.Workload.Load = *load
	base.Workload.Duration = sim.Time(*duration)
	base.Workload.Seed = *seed
	base.ECNThresholdK = *ecnK

	tcfg := core.DefaultTrainConfig()
	tcfg.Dataset.Window = *window
	tcfg.Model = ml.DefaultModelConfig(0, *window)
	tcfg.Model.Hidden = *hidden
	tcfg.Model.Layers = *layers
	tcfg.Model.Epochs = *epochs
	tcfg.Model.CellType = *cellType
	if *batch != 0 {
		tcfg.Model.BatchSize = *batch
	}
	if *cellType == "mlp" {
		tcfg.Model.Layers = 1
	}

	// Live per-epoch reports; the two directions train concurrently, so
	// lines interleave tagged by direction.
	trainProgress := func(dir core.Direction, p ml.TrainProgress) {
		fmt.Printf("  train[%-7s] epoch %d/%d loss=%.4f (%.0f samples/sec, batch %d)\n",
			dir, p.Epoch, p.Epochs, p.Loss, p.SamplesPerSec, p.BatchSize)
	}

	var models *core.MimicModels
	var fixedCost time.Duration
	switch {
	case *loadPath != "":
		blob, err := os.ReadFile(*loadPath)
		fatal(err)
		models, err = core.LoadModels(blob)
		fatal(err)
		fmt.Printf("loaded trained models from %s\n", *loadPath)
	case *tracePath != "":
		fmt.Printf("training from saved trace %s ...\n", *tracePath)
		f, err := os.Open(*tracePath)
		fatal(err)
		records, err := core.ReadTrace(f)
		f.Close()
		fatal(err)
		ingRecs, egRecs := core.SplitTrace(records)
		spec := core.NewFeatureSpec(base.Topo)
		ingDS, err := core.BuildDataset(core.Ingress, ingRecs, spec, tcfg.Dataset)
		fatal(err)
		egDS, err := core.BuildDataset(core.Egress, egRecs, spec, tcfg.Dataset)
		fatal(err)
		t0 := time.Now()
		var ingEval, egEval ml.EvalResult
		models, ingEval, egEval, err = core.TrainModelsContext(context.Background(), ingDS, egDS, tcfg, trainProgress, nil)
		fatal(err)
		fixedCost = time.Since(t0)
		fmt.Printf("  model training          %v (%d+%d samples; ingress MAE %.4f, egress MAE %.4f)\n",
			fixedCost.Round(time.Millisecond), ingDS.Len(), egDS.Len(),
			ingEval.LatencyMAE, egEval.LatencyMAE)
		if *savePath != "" {
			blob, err := models.Save()
			fatal(err)
			fatal(os.WriteFile(*savePath, blob, 0o644))
			fmt.Printf("saved trained models to %s\n", *savePath)
		}
	default:
		fmt.Println("phase 1-2: small-scale simulation + training ...")
		art, err := core.RunPipeline(core.PipelineConfig{
			Base:               base,
			SmallScaleDuration: sim.Time(*smallRun),
			Train:              tcfg,
			TrainProgress:      trainProgress,
		})
		fatal(err)
		models = art.Models
		fixedCost = art.SmallScaleTime + art.TrainTime
		fmt.Printf("  small-scale simulation  %v (%d+%d samples)\n",
			art.SmallScaleTime.Round(time.Millisecond), art.IngressSamples, art.EgressSamples)
		fmt.Printf("  model training          %v (ingress MAE %.4f, egress MAE %.4f)\n",
			art.TrainTime.Round(time.Millisecond),
			art.IngressEval.LatencyMAE, art.EgressEval.LatencyMAE)

		if *tune > 0 {
			fmt.Printf("phase 3: hyper-parameter tuning (budget %d) ...\n", *tune)
			t0 := time.Now()
			valBase := base
			valBase.Workload.Seed = *seed + 1000 // held-out validation workload
			validator, err := tuning.NewValidator(valBase, []int{2, 4}, sim.Time(*smallRun), *tuneSizes)
			fatal(err)
			ing, eg, _, err := core.GenerateTrainingData(base, sim.Time(*smallRun), tcfg)
			fatal(err)
			boCfg := tuning.DefaultBayesOptConfig()
			boCfg.InitPoints = min(4, *tune)
			boCfg.Iterations = *tune - boCfg.InitPoints
			res, err := tuning.BayesOpt(tuning.MimicSpace(),
				tuning.MimicObjective(ing, eg, tcfg, validator), boCfg)
			fatal(err)
			fmt.Printf("  best score (mean W1 %s) %.4g with %v\n", *tuneSizes, res.Best.Score, res.Best.Params)
			best := tuning.ApplyParams(tcfg, res.Best.Params)
			models, _, _, err = core.TrainModelsContext(context.Background(), ing, eg, best, trainProgress, nil)
			fatal(err)
			fixedCost += time.Since(t0)
			fmt.Printf("  tuning                  %v\n", time.Since(t0).Round(time.Millisecond))
		}
		if *savePath != "" {
			blob, err := models.Save()
			fatal(err)
			fatal(os.WriteFile(*savePath, blob, 0o644))
			fmt.Printf("saved trained models to %s\n", *savePath)
		}
	}

	if *validate {
		fmt.Println("phase 4: hybrid per-direction validation (Appendix B) ...")
		ingW1, egW1, err := core.RoleError(base, models, sim.Time(*smallRun))
		fatal(err)
		fmt.Printf("  W1(FCT) vs all-real 2-cluster reference: ingress=%.4g egress=%.4g\n", ingW1, egW1)
	}

	fmt.Printf("phase 5: composing %d clusters (1 real + %d mimics) ...\n", *clusters, *clusters-1)
	cfg := base
	cfg.Topo = base.Topo.WithClusters(*clusters)
	t0 := time.Now()
	comp, err := core.Compose(cfg, models)
	fatal(err)
	comp.Run(sim.Time(*run))
	wall := time.Since(t0)
	res := comp.Results()

	fmt.Printf("large-scale simulation  %v (%.2f sim-sec/sec)\n",
		wall.Round(time.Millisecond), sim.Time(*run).Seconds()/wall.Seconds())
	if fixedCost > 0 {
		fmt.Printf("total incl. training    %v\n", (wall + fixedCost).Round(time.Millisecond))
	}
	fmt.Printf("events processed        %d (%d LSTM steps, %d feeder events)\n",
		res.Events, comp.InferenceSteps(), comp.FeederEvents())
	fmt.Printf("flows                   %d started, %d completed\n", comp.FlowsStarted(), comp.FlowsCompleted())
	fmt.Printf("mimic drops             %d ingress, %d egress\n", comp.MimicDrops(core.Ingress), comp.MimicDrops(core.Egress))
	printDist("fct_seconds", res.FCTs)
	printDist("throughput_Bps", res.Throughputs)
	printDist("rtt_seconds", res.RTTs)
}

// runRemote submits the spec to a mimicnetd daemon, streams progress
// while polling, and prints the same summary shape as a local run.
func runRemote(base string, spec serve.JobSpec) {
	c := serve.NewClient(base)
	st, err := c.Submit(spec)
	if busy, ok := err.(*serve.BusyError); ok {
		fatal(fmt.Errorf("daemon is at capacity; retry in %v", busy.RetryAfter))
	}
	fatal(err)
	fmt.Printf("submitted job %s to %s (model key %.12s…)\n", st.ID, base, st.ModelKey)

	lastPhase := ""
	lastTrain := ""
	final, err := c.Wait(context.Background(), st.ID, 250*time.Millisecond, func(cur serve.JobStatus) {
		if cur.Progress.Phase != "" && cur.Progress.Phase != lastPhase {
			lastPhase = cur.Progress.Phase
			fmt.Printf("phase: %s\n", lastPhase)
		}
		if tp := cur.Progress.Train; tp != nil && cur.Progress.Phase == "train" {
			// Polling undersamples the epoch stream; print each new report.
			key := fmt.Sprintf("%s/%d", tp.Direction, tp.Epoch)
			if key != lastTrain {
				lastTrain = key
				fmt.Printf("  train[%-7s] epoch %d/%d loss=%.4f (%.0f samples/sec, batch %d)\n",
					tp.Direction, tp.Epoch, tp.Epochs, tp.Loss, tp.SamplesPerSec, tp.BatchSize)
			}
		}
		if cur.Progress.Phase == "compose" && cur.Progress.Events > 0 {
			fmt.Printf("  t=%.3fs events=%d (%.3g events/sec)\r",
				cur.Progress.SimTimeS, cur.Progress.Events, cur.Progress.EventsPerSec)
		}
	})
	fatal(err)
	fmt.Println()
	switch final.State {
	case serve.StateDone:
	case serve.StateCancelled:
		fmt.Printf("job cancelled: %s\n", final.Error)
	default:
		fatal(fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error))
	}
	r := final.Result
	if r == nil {
		fatal(fmt.Errorf("job %s finished without results", final.ID))
	}
	if r.CacheHit {
		fmt.Printf("trained models reused from the daemon registry (train phase %v)\n",
			time.Duration(r.TrainMs*float64(time.Millisecond)).Round(time.Millisecond))
	} else {
		fmt.Printf("trained on the daemon          %v\n",
			time.Duration(r.TrainMs*float64(time.Millisecond)).Round(time.Millisecond))
	}
	fmt.Printf("large-scale simulation  %v (%.2f sim-sec/sec)\n",
		time.Duration(r.ComposeMs*float64(time.Millisecond)).Round(time.Millisecond), r.SimSecPerSec)
	fmt.Printf("events processed        %d\n", r.Events)
	fmt.Printf("flows                   %d started, %d completed\n", r.FlowsStarted, r.FlowsCompleted)
	printRemoteDist("fct_seconds", r.FCTSeconds)
	printRemoteDist("throughput_Bps", r.ThroughputBps)
	printRemoteDist("rtt_seconds", r.RTTSeconds)
}

func printRemoteDist(name string, d serve.Dist) {
	if d.N == 0 {
		fmt.Printf("%-22s (no samples)\n", name)
		return
	}
	fmt.Printf("%-22s n=%d p50=%.4g p90=%.4g p99=%.4g mean=%.4g\n",
		name, d.N, d.P50, d.P90, d.P99, d.Mean)
}

func printDist(name string, d []float64) {
	if len(d) == 0 {
		fmt.Printf("%-22s (no samples)\n", name)
		return
	}
	fmt.Printf("%-22s n=%d p50=%.4g p90=%.4g p99=%.4g mean=%.4g\n",
		name, len(d),
		stats.Quantile(d, 0.5), stats.Quantile(d, 0.9),
		stats.Quantile(d, 0.99), stats.Mean(d))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mimicnet:", err)
		os.Exit(1)
	}
}
