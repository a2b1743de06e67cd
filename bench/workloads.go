package main

import (
	"fmt"
	"math"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/metrics"
	"mimicnet/internal/obs"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
	"mimicnet/internal/transport"
)

// workloadDef is one benchmark workload. setup builds everything the
// timed loop needs and is itself timed (setup_s); the returned loop runs
// one op at a time.
type workloadDef struct {
	name  string
	setup func(r *run) (*loop, error)
}

type loop struct {
	// built holds the phases of the set-up, so that setup_s is freed of
	// the input's size the same way op_s is.
	built *opRec
	// kinds is how many distinct inputs the ops cycle through: enough
	// that a run's median is over many inputs, not over one input's
	// quirks. The warm-up and the first timed op share input 0, so at
	// least that op is always checked against a repetition of itself.
	kinds int
	op    func(o *opRec) error
	// after runs once the timed loop has ended: untimed checks, and the
	// extra measurements only a traced run reports.
	after func() error
	// close releases what set-up acquired; nil when there is nothing.
	close func()
}

func (lp *loop) stop() {
	if lp.close != nil {
		lp.close()
	}
}

var workloads = []workloadDef{
	{"cold_n8", setupCold},
	{"warm_n32", setupWarm},
	{"fullsim_dctcp_n16", setupFullsim},
	{"serve_mix", setupServe},
}

// sizes are the simulated dimensions of a run. The flow generator stops
// at the spec's workload horizon; runs continue past it so that most
// flows complete.
type sizes struct {
	spec                   func(seed int64) serve.JobSpec // traffic and training of the library workloads
	coldN, warmN, fullsimN int
	coldRunMs, longRunMs   float64
	probeShrink            int // divides the probes' iteration counts
}

// fullSize is what the benchmark measures; smokeSize lets the package's
// test drive every code path in seconds.
var (
	fullSize = sizes{
		spec:  defaultSpec,
		coldN: 8, warmN: 32, fullsimN: 16,
		coldRunMs: 300, longRunMs: 400, probeShrink: 1,
	}
	smokeSize = sizes{
		spec:  func(seed int64) serve.JobSpec { return thumbnail(seed, 0).Normalized() },
		coldN: 4, warmN: 6, fullsimN: 4,
		coldRunMs: 150, longRunMs: 150, probeShrink: 20,
	}
)

const fullsimLoad = 0.9

// nominals are the work of a typical op, per phase: packets simulated
// (plus model steps in a composed run) and sample-epochs trained. They
// were measured once on the build host and then frozen. They only set
// the scale of the reported numbers (a typical op reads as its own
// wall-clock), never their ratio between two commits.
type nominals struct {
	datagen, train, compose, full float64
}

var (
	coldNominal  = nominals{datagen: 24_000, train: 27_000, compose: 70_000, full: 117_000}
	warmNominal  = nominals{datagen: 24_000, train: 27_000, compose: 320_000}
	dctcpNominal = nominals{full: 390_000}
	// thumbNominal is for the thumbnail spec at 4 clusters, the set-up
	// dry runs; serveNominal for serve_mix's jobs at 4 to 16 clusters.
	thumbNominal = nominals{datagen: 11_000, train: 8_000, compose: 12_000, full: 21_000}
	serveNominal = nominals{train: 8_000, compose: 25_000}
)

// trainedSamples is the cell behind /metrics' count of samples the
// trainer consumed, summed over epochs: the work of a training phase,
// also for a job that trains inside the daemon.
var trainedSamples = obs.Default().Counter("mimicnet_ml_train_samples_total", "")

func ms(v float64) sim.Time { return sim.FromSeconds(v / 1e3) }

// thumbnail is the small spec used where the simulated work is payload
// rather than the thing measured: serve_mix jobs and warm-up dry runs.
func thumbnail(seed int64, clusters int) serve.JobSpec {
	return serve.JobSpec{
		Seed: seed, Clusters: clusters, Window: 6, Hidden: 12, Epochs: 2,
		SmallRunMs: 200, WorkloadMs: 100, RunMs: 150,
	}
}

// defaultSpec is serve.JobSpec's defaults with a 300 ms flow horizon:
// 2 racks × 4 hosts, New Reno, load 0.7, window 12, hidden 24, 4 epochs,
// 250 ms data-generation run.
func defaultSpec(seed int64) serve.JobSpec {
	return serve.JobSpec{Seed: seed, WorkloadMs: 300}.Normalized()
}

// trainSpec runs data generation and training for spec, as phases of o.
func trainSpec(o *opRec, spec serve.JobSpec, nom nominals) (cluster.Config, *core.MimicModels, error) {
	spec = spec.Normalized()
	base, tcfg, err := spec.Configs()
	if err != nil {
		return base, nil, err
	}
	var ing, eg *core.Dataset
	err = o.phase("core.datagen", nom.datagen, func() (float64, error) {
		var inst *cluster.Simulation
		ing, eg, inst, err = core.GenerateTrainingData(base, ms(spec.SmallRunMs), tcfg)
		if err != nil {
			return 0, err
		}
		return float64(inst.Results().Packets), nil
	})
	if err != nil {
		return base, nil, err
	}
	o.count("core.dataset_samples", float64(ing.Len()+eg.Len()))
	var models *core.MimicModels
	err = o.phase("ml.train", nom.train, func() (float64, error) {
		before := trainedSamples.Value()
		models, _, _, err = core.TrainModels(ing, eg, tcfg)
		return float64(trainedSamples.Value() - before), err
	})
	return base, models, err
}

// usable rejects a result that cannot stand for an estimate.
func usable(what string, res cluster.Results) error {
	switch {
	case res.Cancelled:
		return fmt.Errorf("%s: results are cancelled", what)
	case len(res.FCTs) == 0:
		return fmt.Errorf("%s: no flow completed", what)
	}
	return nil
}

// composeRun builds and runs one composed estimate as two phases of o,
// named after the engine cfg selects: core.compose_* for the sequential
// one, core.sharded_* for the sharded one.
func composeRun(o *opRec, cfg cluster.Config, models *core.MimicModels, until sim.Time, nominal float64) (cluster.Results, error) {
	engine := "core.compose"
	if cfg.ShardedRun > 0 {
		engine = "core.sharded"
	}
	var comp *core.Composed
	err := o.phase(engine+"_build", 0, func() (w float64, err error) {
		comp, err = core.Compose(cfg, models)
		return 0, err
	})
	if err != nil {
		return cluster.Results{}, err
	}
	var res cluster.Results
	err = o.phase(engine+"_run", nominal, func() (float64, error) {
		comp.Run(until)
		res = comp.Results()
		return float64(res.Packets + comp.InferenceSteps()), nil
	})
	if err != nil {
		return res, err
	}
	o.count(engine+"_events", float64(res.Events))
	o.count("core.inference_steps", float64(comp.InferenceSteps()))
	o.count("core.feeder_events", float64(comp.FeederEvents()))
	return res, usable("composed run", res)
}

// fullRun builds and runs one full-fidelity simulation as two phases.
func fullRun(o *opRec, cfg cluster.Config, until sim.Time, nominal float64) (cluster.Results, error) {
	var inst *cluster.Simulation
	err := o.phase("cluster.full_build", 0, func() (w float64, err error) {
		inst, err = cluster.New(cfg)
		return 0, err
	})
	if err != nil {
		return cluster.Results{}, err
	}
	var res cluster.Results
	err = o.phase("cluster.full_run", nominal, func() (float64, error) {
		inst.Run(until)
		res = inst.Results()
		return float64(res.Packets), nil
	})
	if err != nil {
		return res, err
	}
	o.count("cluster.full_events", float64(res.Events))
	o.count("netsim.packets", float64(res.Packets))
	o.count("netsim.drops", float64(res.Drops))
	o.count("workload.flows", float64(len(inst.Flows())))
	return res, usable("full-fidelity run", res)
}

// accuracy computes the paper's three W1 distances of an estimate
// against its full-fidelity reference, as one phase.
func accuracy(o *opRec, est, ref cluster.Results) error {
	var w [3]float64
	err := o.phase("metrics.w1", 0, func() (float64, error) {
		w[0] = metrics.W1(est.FCTs, ref.FCTs)
		w[1] = metrics.W1(est.Throughputs, ref.Throughputs)
		w[2] = metrics.W1(est.RTTs, ref.RTTs)
		return 0, nil
	})
	if err != nil {
		return err
	}
	for i, name := range []string{"metrics.w1_fct", "metrics.w1_tput", "metrics.w1_rtt"} {
		if math.IsNaN(w[i]) || math.IsInf(w[i], 0) {
			return fmt.Errorf("%s is %v", name, w[i])
		}
		o.count(name, w[i])
	}
	return nil
}

// setupCold has nothing to build: every op is cold by definition. Its
// set-up is a dry run of the whole pipeline at thumbnail size, so that
// the heap, the GEMM pool and the page cache are in place before timing.
func setupCold(r *run) (*loop, error) {
	dry := &opRec{r: r}
	if err := coldEstimate(dry, thumbnail(subSeed(r.seed, 0), 4), ms(150), thumbNominal); err != nil {
		return nil, err
	}
	return &loop{
		built: dry,
		kinds: 8,
		op: func(o *opRec) error {
			spec := r.size.spec(subSeed(r.seed, o.sub))
			spec.Clusters = r.size.coldN
			return coldEstimate(o, spec, ms(r.size.coldRunMs), coldNominal)
		},
	}, nil
}

// coldEstimate is the library path a first-time user runs: generate
// data, train, compose and run at N clusters, then validate against the
// full-fidelity simulation of the same N clusters.
func coldEstimate(o *opRec, spec serve.JobSpec, until sim.Time, nom nominals) error {
	base, models, err := trainSpec(o, spec, nom)
	if err != nil {
		return err
	}
	cfg := base
	cfg.Topo = base.Topo.WithClusters(spec.Normalized().Clusters)
	cfg.ShardedRun = -1
	est, err := composeRun(o, cfg, models, until, nom.compose)
	if err != nil {
		return err
	}
	ref, err := fullRun(o, cfg, until, nom.full)
	if err != nil {
		return err
	}
	if err := accuracy(o, est, ref); err != nil {
		return err
	}
	key := fmt.Sprintf("cold seed=%d hidden=%d", spec.Seed, spec.Hidden)
	if err := o.r.checkSame(key+" composed", fingerprint(est)); err != nil {
		return err
	}
	return o.r.checkSame(key+" full", fingerprint(ref))
}

// setupWarm trains the models once; the loop then only composes and
// runs, which is the amortised what-if path. Each op draws its traffic
// from another sub-seed, as a user asking several questions of one
// trained model would.
func setupWarm(r *run) (*loop, error) {
	build := &opRec{r: r}
	base, models, err := trainSpec(build, r.size.spec(subSeed(r.seed, 0)), warmNominal)
	if err != nil {
		return nil, err
	}
	config := func(sub int, sharded bool) cluster.Config {
		cfg := base
		cfg.Workload.Seed = subSeed(r.seed, sub)
		cfg.Topo = base.Topo.WithClusters(r.size.warmN)
		cfg.ShardedRun = -1
		if sharded {
			cfg.ShardedRun = 1
			cfg.NumWorkers = min(r.ncpu, 4)
		}
		return cfg
	}
	until := ms(r.size.longRunMs)
	var est0 cluster.Results // sub-seed 0's estimate, for the checks in after
	return &loop{
		built: build,
		kinds: 8,
		op: func(o *opRec) error {
			res, err := composeRun(o, config(o.sub, false), models, until, warmNominal.compose)
			if err != nil {
				return err
			}
			if o.sub == 0 {
				est0 = res
			}
			return r.checkSame(fmt.Sprintf("warm seed=%d", subSeed(r.seed, o.sub)), fingerprint(res))
		},
		after: func() error {
			// The sharded engine must reproduce the sequential one bit
			// for bit. It is timed only in a traced run and never gated:
			// with one worker per CPU its wall-clock is the first thing
			// any other load on the host disturbs.
			reps := 1
			if r.trace {
				reps = 3
			}
			for i := 0; i < reps; i++ {
				res, err := composeRun(r.extraOp(), config(0, true), models, until, warmNominal.compose)
				if err != nil {
					return err
				}
				if got, want := behaviour(fingerprint(res)), behaviour(fingerprint(est0)); got != want {
					return fmt.Errorf("sharded run of seed=%d: fingerprint %s differs from sequential %s", subSeed(r.seed, 0), got, want)
				}
			}
			if !r.trace {
				return nil
			}
			// The paper's pair: how far the estimate is from full
			// fidelity, and how much sooner it arrives.
			ref := r.extraOp()
			t0 := time.Now()
			full, err := fullRun(ref, config(0, false), until, 0)
			if err != nil {
				return err
			}
			fullSec := time.Since(t0).Seconds()
			if err := accuracy(ref, est0, full); err != nil {
				return err
			}
			r.set("bench.speedup_vs_full", ratio(fullSec, median(r.opSecs(0))))
			return nil
		},
	}, nil
}

// setupFullsim has nothing to build either; its set-up is a thumbnail
// dry run of the packet-level simulator under the same protocol.
func setupFullsim(r *run) (*loop, error) {
	config := func(spec serve.JobSpec, n int) (cluster.Config, error) {
		base, _, err := spec.Configs()
		if err != nil {
			return base, err
		}
		base.Protocol = transport.NewDCTCPProtocol()
		base.Workload.Load = fullsimLoad
		base.Topo = base.Topo.WithClusters(n)
		return base, nil
	}
	dry, err := config(thumbnail(subSeed(r.seed, 0), 0).Normalized(), 8)
	if err != nil {
		return nil, err
	}
	built := &opRec{r: r}
	if _, err := fullRun(built, dry, ms(150), 2*thumbNominal.full); err != nil {
		return nil, err
	}
	return &loop{
		built: built,
		kinds: 12,
		op: func(o *opRec) error {
			seed := subSeed(r.seed, o.sub)
			cfg, err := config(r.size.spec(seed), r.size.fullsimN)
			if err != nil {
				return err
			}
			res, err := fullRun(o, cfg, ms(r.size.longRunMs), dctcpNominal.full)
			if err != nil {
				return err
			}
			return r.checkSame(fmt.Sprintf("fullsim seed=%d", seed), fingerprint(res))
		},
	}, nil
}
