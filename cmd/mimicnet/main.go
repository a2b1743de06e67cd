// Command mimicnet runs the end-to-end MimicNet workflow (paper Fig. 3):
//
//  1. full-fidelity 2-cluster simulation to generate training data,
//  2. optional hyper-parameter tuning against held-out validation runs,
//  3. internal-model training (+ feeder fitting), once, with the tuned
//     hyper-parameters,
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
	"sync"
	"time"

	"mimicnet/internal/core"
	"mimicnet/internal/ml"
	"mimicnet/internal/serve"
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
		cellType  = flag.String("cell", "lstm", "trunk model class: lstm|mlp")
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

	spec := serve.JobSpec{
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
	}
	if *server != "" {
		if *loadPath != "" || *savePath != "" || *tracePath != "" || *validate {
			fatal(fmt.Errorf("-server cannot be combined with -models/-save/-trace/-validate-directions; the daemon manages artifacts via its registry"))
		}
		runRemote(*server, spec)
		return
	}
	if *loadPath != "" && (*tracePath != "" || *tune > 0 || *savePath != "") {
		fatal(fmt.Errorf("-models cannot be combined with -trace/-tune/-save; a loaded artifact is already trained"))
	}

	// A local run uses the same configuration the daemon would build.
	spec = spec.Normalized()
	fatal(spec.Validate())
	base, tcfg, err := spec.Configs()
	fatal(err)

	var models *core.MimicModels
	var fixedCost time.Duration
	if *loadPath != "" {
		blob, err := os.ReadFile(*loadPath)
		fatal(err)
		models, err = core.LoadModels(blob)
		fatal(err)
		fmt.Printf("loaded trained models from %s\n", *loadPath)
	} else {
		t0 := time.Now()
		var ing, eg *core.Dataset
		if *tracePath != "" {
			fmt.Printf("phase 1: datasets from saved trace %s ...\n", *tracePath)
			f, err := os.Open(*tracePath)
			fatal(err)
			records, err := core.ReadTrace(f)
			f.Close()
			fatal(err)
			ing, eg, err = core.BuildDatasets(base.Topo, records, tcfg)
			fatal(err)
		} else {
			fmt.Println("phase 1: small-scale simulation ...")
			ing, eg, err = spec.Datasets(context.Background())
			fatal(err)
			fmt.Printf("  small-scale simulation  %v\n", time.Since(t0).Round(time.Millisecond))
		}
		// Per-epoch reports. The two directions train concurrently for
		// the same number of epochs, so each direction's lines queue until
		// the other has reported the same epoch, and every epoch prints as
		// an ingress-then-egress pair. A tuned run learns its best trial
		// only when Train returns, and holds the final training's lines
		// until that result is printed.
		var mu sync.Mutex
		var pending [2][]string // per direction, lines not yet paired
		var held []string
		emit := func(line string) {
			if *tune > 0 {
				held = append(held, line)
			} else {
				fmt.Println(line)
			}
		}
		progress := func(dir core.Direction, p ml.TrainProgress) {
			line := fmt.Sprintf("  train[%-7s] epoch %d/%d loss=%.4f (%.0f samples/sec, batch %d)",
				dir, p.Epoch, p.Epochs, p.Loss, p.SamplesPerSec, p.BatchSize)
			mu.Lock()
			defer mu.Unlock()
			pending[dir] = append(pending[dir], line)
			for len(pending[core.Ingress]) > 0 && len(pending[core.Egress]) > 0 {
				emit(pending[core.Ingress][0])
				emit(pending[core.Egress][0])
				pending[core.Ingress], pending[core.Egress] = pending[core.Ingress][1:], pending[core.Egress][1:]
			}
		}
		if *tune > 0 {
			fmt.Printf("phase 2: hyper-parameter tuning (budget %d) ...\n", *tune)
		} else {
			fmt.Println("phase 3: training ...")
		}
		t1 := time.Now()
		var tr serve.Training
		models, tr, err = spec.Train(context.Background(), ing, eg, progress, nil)
		fatal(err)
		fixedCost = time.Since(t0)
		if tr.Tuned != nil {
			fmt.Printf("  best score (mean W1 %s) %.4g with %v\n", spec.TuneMetric, tr.Tuned.Score, tr.Tuned.Params)
			fmt.Printf("  tuning                  %v\n", tr.TuneWall.Round(time.Millisecond))
			fmt.Println("phase 3: training ...")
			for _, line := range held {
				fmt.Println(line)
			}
		}
		fmt.Printf("  model training          %v (%d+%d samples; ingress MAE %.4f, egress MAE %.4f)\n",
			(time.Since(t1) - tr.TuneWall).Round(time.Millisecond), ing.Len(), eg.Len(),
			tr.IngressEval.LatencyMAE, tr.EgressEval.LatencyMAE)
		if *savePath != "" {
			blob, err := models.Save()
			fatal(err)
			fatal(os.WriteFile(*savePath, blob, 0o644))
			fmt.Printf("saved trained models to %s\n", *savePath)
		}
	}

	if *validate {
		fmt.Println("phase 4: hybrid per-direction validation (Appendix B) ...")
		ingW1, egW1, err := core.RoleError(base, models, spec.SmallRunTime())
		fatal(err)
		fmt.Printf("  W1(FCT) vs all-real 2-cluster reference: ingress=%.4g egress=%.4g\n", ingW1, egW1)
	}

	fmt.Printf("phase 5: composing %d clusters (1 real + %d mimics) ...\n", *clusters, *clusters-1)
	sum, err := spec.Estimate(context.Background(), models, nil)
	fatal(err)
	sum.TrainMs = float64(fixedCost) / float64(time.Millisecond)
	printSummary(sum)
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
		fmt.Println("trained models reused from the daemon registry")
	}
	printSummary(r)
}

// printSummary prints an estimate, local or remote, in one shape.
func printSummary(s *serve.Summary) {
	fmt.Printf("large-scale simulation  %v (%.2f sim-sec/sec)\n",
		time.Duration(s.ComposeMs*1e6).Round(time.Millisecond), s.SimSecPerSec)
	if s.TrainMs > 0 {
		fmt.Printf("total incl. training    %v\n", time.Duration((s.TrainMs+s.ComposeMs)*1e6).Round(time.Millisecond))
	}
	fmt.Printf("events processed        %d (%d LSTM steps, %d feeder events)\n",
		s.Events, s.InferenceSteps, s.FeederEvents)
	fmt.Printf("flows                   %d started, %d completed\n", s.FlowsStarted, s.FlowsCompleted)
	fmt.Printf("mimic drops             %d ingress, %d egress\n", s.MimicDropsIngress, s.MimicDropsEgress)
	for _, d := range []struct {
		name string
		serve.Dist
	}{{"fct_seconds", s.FCTSeconds}, {"throughput_Bps", s.ThroughputBps}, {"rtt_seconds", s.RTTSeconds}} {
		if d.N == 0 {
			fmt.Printf("%-22s (no samples)\n", d.name)
			continue
		}
		fmt.Printf("%-22s n=%d p50=%.4g p90=%.4g p99=%.4g mean=%.4g\n",
			d.name, d.N, d.P50, d.P90, d.P99, d.Mean)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mimicnet:", err)
		os.Exit(1)
	}
}
