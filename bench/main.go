// Command bench is the repository's benchmark: it measures what a user
// of MimicNet waits for (a cold estimate, a warm what-if estimate, a
// full-fidelity simulation, a job on the daemon) and, in a traced run,
// which layer the time went to. BENCHMARK.json at the repository root
// names the metrics and the bound each may worsen by; README.md in this
// directory explains how to read them.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//	bench -seed N -out DIR                                every workload, plain then traced
//	bench -compare A/result.json B/result.json            judge B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"mimicnet/internal/ml"
)

// metricDef names one reported metric. exact marks a count the program
// makes that repeats exactly for a given seed; -compare requires those
// to be equal rather than within a bound.
type metricDef struct {
	name, unit string
	exact      bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_s", unit: "s"},
	{name: "alloc_mb_per_op", unit: "MB"},
}

var perLayer = []metricDef{
	{name: "sim.kernel_events_per_s", unit: "1/s"},
	{name: "sim.kernel_allocs_per_event", unit: "count"},
	{name: "sim.pdes_barrier_ns_per_window", unit: "ns"},
	{name: "cluster.full_build_s", unit: "s"},
	{name: "cluster.full_run_s", unit: "s"},
	{name: "cluster.full_events", unit: "count", exact: true},
	{name: "cluster.full_events_per_s", unit: "1/s"},
	{name: "cluster.full_allocs_per_event", unit: "count"},
	{name: "netsim.packets_per_s", unit: "1/s"},
	{name: "netsim.drop_share", unit: "%", exact: true},
	{name: "workload.flows", unit: "count", exact: true},
	{name: "core.datagen_s", unit: "s"},
	{name: "core.dataset_samples", unit: "count", exact: true},
	{name: "core.compose_build_s", unit: "s"},
	{name: "core.compose_run_s", unit: "s"},
	{name: "core.compose_events", unit: "count", exact: true},
	{name: "core.inference_steps", unit: "count", exact: true},
	{name: "core.feeder_events", unit: "count", exact: true},
	{name: "core.compose_events_per_s", unit: "1/s"},
	{name: "core.compose_allocs_per_event", unit: "count"},
	{name: "core.sharded_run_s", unit: "s"},
	{name: "core.sharded_events", unit: "count", exact: true},
	{name: "core.sharded_speedup", unit: "x"},
	{name: "ml.train_s", unit: "s"},
	{name: "ml.train_samples_per_s", unit: "1/s"},
	{name: "ml.train_allocs_per_sample", unit: "count"},
	{name: "ml.infer_ns_per_step", unit: "ns"},
	{name: "ml.infer_share", unit: "%"},
	{name: "metrics.w1_ms", unit: "ms"},
	{name: "metrics.w1_fct", unit: "s", exact: true},
	{name: "metrics.w1_tput", unit: "B/s", exact: true},
	{name: "metrics.w1_rtt", unit: "s", exact: true},
	{name: "serve.cold_job_s", unit: "s"},
	{name: "serve.warm_job_ms", unit: "ms"},
	{name: "serve.warm_job_p90_ms", unit: "ms"},
	{name: "serve.jobs_per_s", unit: "1/s"},
	{name: "serve.submit_ms", unit: "ms"},
	{name: "serve.queue_wait_ms", unit: "ms"},
	{name: "serve.run_ms", unit: "ms"},
	{name: "serve.notify_lag_ms", unit: "ms"},
	{name: "serve.train_phase_s", unit: "s"},
	{name: "serve.compose_phase_s", unit: "s"},
	{name: "serve.registry_hit_share", unit: "%"},
	{name: "serve.dataset_cache_hit_share", unit: "%"},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.registry_get_mem_us", unit: "us"},
	{name: "serve.registry_get_disk_ms", unit: "ms"},
	{name: "durable.append_sync_ms", unit: "ms"},
	{name: "durable.append_batch_us", unit: "us"},
	{name: "durable.container_write_ms", unit: "ms"},
	{name: "durable.container_read_ms", unit: "ms"},
	{name: "durable.replay_ms", unit: "ms"},
	{name: "bench.host_slowdown", unit: "x"},
	{name: "bench.op_raw_s", unit: "s"},
	{name: "bench.speedup_vs_full", unit: "x"},
	{name: "bench.span_coverage", unit: "%"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}

// An untraced run sets up at least setupReps times, so that setup_s is a
// median, and goes on while that has taken less than setupSpan, up to
// maxSetupReps times: a set-up of a tenth of a second needs more samples
// than one of three seconds. A traced run does not report setup_s and
// sets up once.
const (
	setupReps    = 3
	maxSetupReps = 9
	setupSpan    = 3 * time.Second
)

// run is one workload measured once.
type run struct {
	def     *workloadDef
	size    sizes
	seed    int64
	seconds float64
	trace   bool
	ncpu    int
	scratch string // directory for the daemon's data and the disk probes

	t0         time.Time
	setupSpeed hostSpeed // calibrations around the set-ups
	loopSpeed  hostSpeed // calibrations between the ops
	spans      []span
	prints     map[string]string
	setups     []float64
	ops        []*opRec // timed ops that succeeded
	extras     []*opRec // untimed ops run after the loop
	attempted  int
	failed     int
	failures   []string
	observed   map[string][]float64 // per-layer observations, reported as medians
	fixed      map[string]float64   // per-layer values reported as set
}

func newRun(def *workloadDef, size sizes, seed int64, seconds float64, trace bool, scratch string) *run {
	return &run{
		def: def, size: size, seed: seed, seconds: seconds, trace: trace,
		ncpu: runtime.NumCPU(), scratch: scratch, t0: time.Now(),
		prints: map[string]string{}, observed: map[string][]float64{}, fixed: map[string]float64{},
	}
}

func (r *run) observe(name string, v float64) { r.observed[name] = append(r.observed[name], v) }
func (r *run) set(name string, v float64)     { r.fixed[name] = v }

// fail records a tripped check; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", r.def.name, r.failures[len(r.failures)-1])
}

// extraOp returns the record of an untimed op run after the loop on
// sub-seed 0; its phases and counts join the per-layer numbers.
func (r *run) extraOp() *opRec {
	o := &opRec{r: r}
	r.extras = append(r.extras, o)
	return o
}

// opSecs lists the measured wall-clock of the timed ops on one sub-seed.
func (r *run) opSecs(sub int) []float64 {
	var out []float64
	for _, o := range r.ops {
		if o.sub == sub {
			out = append(out, o.total)
		}
	}
	return out
}

// phaseSecs lists one phase's wall-clock over the timed ops on one
// sub-seed.
func (r *run) phaseSecs(name string, sub int) []float64 {
	var out []float64
	for _, o := range r.ops {
		if p := o.find(name); p != nil && o.sub == sub {
			out = append(out, p.sec)
		}
	}
	return out
}

// execute sets the workload up, warms it with one untimed op, runs ops
// until r.seconds have passed since the run began (set-up is measured
// too, so it counts) and then the workload's closing checks. Only a
// failed set-up is an error; failed ops are counted.
func (r *run) execute() error {
	deadline := r.t0.Add(time.Duration(r.seconds * float64(time.Second)))
	again := func(done int) bool {
		if r.trace {
			return done < 1
		}
		return done < setupReps || done < maxSetupReps && time.Since(r.t0) < setupSpan && time.Now().Before(deadline)
	}
	var lp *loop
	for i := 0; again(i); i++ {
		if lp != nil {
			lp.stop()
		}
		r.setupSpeed.calibrate()
		runtime.GC()
		t0 := time.Now()
		var err error
		if lp, err = r.def.setup(r); err != nil {
			return fmt.Errorf("%s: set-up: %w", r.def.name, err)
		}
		lp.built.total = time.Since(t0).Seconds()
		sec, _ := lp.built.scaled()
		r.setups = append(r.setups, sec)
	}
	defer lp.stop()
	r.setupSpeed.calibrate()

	r.runOp(lp, 0)
	for id := 1; id == 1 || time.Now().Before(deadline); id++ {
		r.runOp(lp, id)
	}
	if lp.after != nil {
		if err := lp.after(); err != nil {
			r.fail("closing checks: %v", err)
		}
	}
	if r.trace {
		if err := r.probes(); err != nil {
			r.fail("probes: %v", err)
		}
		r.derive()
	}
	return nil
}

// runOp runs one op; id 0 is the warm-up, which is checked but not
// timed. In a traced run every other op records spans, and the rest
// give the untraced median the overhead is measured against.
func (r *run) runOp(lp *loop, id int) {
	if time.Since(r.loopSpeed.last) >= calibEvery {
		r.loopSpeed.calibrate()
	}
	runtime.GC() // between ops, outside the timed region
	o := &opRec{r: r, id: id, sub: max(id-1, 0) % lp.kinds, traced: r.trace && id%2 == 1}
	o.start = time.Now()
	if o.traced {
		o.spanID = r.addSpan(0, id, r.def.name, o.start, o.start)
	}
	err := lp.op(o)
	end := time.Now()
	o.total = end.Sub(o.start).Seconds()
	if o.traced {
		r.spans[o.spanID-1].End = end.Sub(r.t0).Seconds()
	}
	r.attempted++
	switch {
	case err != nil:
		r.fail("op %d (input %d): %v", id, o.sub, err)
	case id > 0:
		r.ops = append(r.ops, o)
	}
}

// endToEndValues computes the bounded metrics from the timed ops, the
// two timings at the reference host's speed.
func (r *run) endToEndValues() map[string][]float64 {
	var setups, secs, mbs []float64
	for _, sec := range r.setups {
		setups = append(setups, sec/r.setupSpeed.slowdown())
	}
	for _, o := range r.ops {
		sec, bytes := o.scaled()
		secs = append(secs, sec/r.loopSpeed.slowdown())
		mbs = append(mbs, bytes/1e6)
	}
	return map[string][]float64{"setup_s": setups, "op_s": secs, "alloc_mb_per_op": mbs}
}

// derive turns the traced run's phases and counts into the per-layer
// metrics. A layer the workload never calls reports 0.
func (r *run) derive() {
	all := append(append([]*opRec(nil), r.ops...), r.extras...)
	for _, o := range all {
		for _, p := range o.phases {
			switch p.name {
			case "core.datagen":
				r.observe("core.datagen_s", p.sec)
			case "ml.train":
				r.observe("ml.train_s", p.sec)
				r.observe("ml.train_samples_per_s", ratio(p.work, p.sec))
				r.observe("ml.train_allocs_per_sample", ratio(p.mallocs, p.work))
			case "core.compose_build":
				r.observe("core.compose_build_s", p.sec)
			case "core.compose_run":
				r.observe("core.compose_run_s", p.sec)
				r.observe("core.compose_events_per_s", ratio(o.counts["core.compose_events"], p.sec))
				r.observe("core.compose_allocs_per_event", ratio(p.mallocs, o.counts["core.compose_events"]))
			case "core.sharded_run":
				r.observe("core.sharded_run_s", p.sec)
			case "cluster.full_build":
				r.observe("cluster.full_build_s", p.sec)
			case "cluster.full_run":
				r.observe("cluster.full_run_s", p.sec)
				r.observe("cluster.full_events_per_s", ratio(o.counts["cluster.full_events"], p.sec))
				r.observe("cluster.full_allocs_per_event", ratio(p.mallocs, o.counts["cluster.full_events"]))
				r.observe("netsim.packets_per_s", ratio(o.counts["netsim.packets"], p.sec))
			case "metrics.w1":
				r.observe("metrics.w1_ms", p.sec*1e3/3)
			}
		}
		for name, v := range o.counts {
			if strings.HasPrefix(name, "serve.") {
				r.observe(name, v)
			}
		}
		// Counts repeat exactly for one input, so they are read off
		// sub-seed 0 alone: the number of ops a run fits in must not
		// change them.
		if o.sub != 0 {
			continue
		}
		for _, m := range perLayer {
			if v, ok := o.counts[m.name]; ok && m.exact {
				r.set(m.name, v)
			}
		}
		if pk := o.counts["netsim.packets"]; pk > 0 {
			r.set("netsim.drop_share", 100*o.counts["netsim.drops"]/pk)
		}
	}
	r.set("core.sharded_speedup", ratio(median(r.phaseSecs("core.compose_run", 0)), median(r.observed["core.sharded_run_s"])))
	r.set("serve.warm_job_p90_ms", quantile(r.observed["serve.warm_job_ms"], 0.9))
	r.set("ml.infer_share", 100*ratio(r.fixed["core.inference_steps"]*r.fixed["ml.infer_ns_per_step"]/1e9,
		median(r.phaseSecs("core.compose_run", 0))))

	var raw, plain, traced, covered []float64
	for _, o := range r.ops {
		raw = append(raw, o.total)
		sec, _ := o.scaled()
		if !o.traced {
			plain = append(plain, sec)
			continue
		}
		traced = append(traced, sec)
		var inChildren float64
		for _, s := range r.spans {
			if s.Parent == o.spanID {
				inChildren += s.End - s.Start
			}
		}
		covered = append(covered, 100*ratio(inChildren, o.total))
	}
	r.set("bench.host_slowdown", r.loopSpeed.slowdown())
	r.set("bench.op_raw_s", median(raw))
	r.set("bench.span_coverage", median(covered))
	if len(plain) > 0 && len(traced) > 0 {
		r.set("bench.trace_overhead_pct", 100*(median(traced)/median(plain)-1))
	}
}

func (r *run) perLayerValue(name string) float64 {
	if v, ok := r.fixed[name]; ok {
		return v
	}
	return median(r.observed[name])
}

// reported is one metric of one run as it goes to result.json.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Exact bool    `json:"exact,omitempty"`
}

// metrics returns what this run reports: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *run) metrics() map[string]reported {
	out := map[string]reported{}
	if !r.trace {
		vals := r.endToEndValues()
		for _, m := range endToEnd {
			v := vals[m.name]
			out[m.name] = reported{Value: median(v), Unit: m.unit, N: len(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75)}
		}
		return out
	}
	for _, m := range perLayer {
		out[m.name] = reported{Value: r.perLayerValue(m.name), Unit: m.unit, N: len(r.observed[m.name]), Exact: m.exact}
	}
	return out
}

// resultLine is the contract with the driver: the last line of output.
func (r *run) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for name, m := range r.metrics() {
		ms[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // a NaN slipped past the checks; numbers otherwise always encode
	}
	return string(b)
}

// print writes the run's metrics as "workload name value unit n".
func (r *run) print() {
	ms := r.metrics()
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := ms[d.name]
		fmt.Printf("%-18s %-32s %14.6g %-6s n=%d", r.def.name, d.name, m.Value, m.Unit, m.N)
		if !r.trace {
			fmt.Printf("  quartiles %.6g %.6g", m.Q1, m.Q3)
		}
		fmt.Println()
	}
	if !r.trace {
		fmt.Printf("%-18s %-32s %14.6g %-6s n=%d\n", r.def.name, "bench.host_slowdown", r.loopSpeed.slowdown(), "x", len(r.loopSpeed.secs))
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// hostFacts is what a number has to be read against.
type hostFacts struct {
	NCPU       int    `json:"ncpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GemmKernel string `json:"gemm_kernel"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	h := hostFacts{
		NCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GemmKernel: ml.GemmKernelName(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Name      string              `json:"name"`
	Ops       int                 `json:"ops"`
	TracedOps int                 `json:"traced_ops"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	WallS     float64             `json:"wall_s"`
	Slowdown  float64             `json:"host_slowdown"` // of the untraced run, already divided out of its timings
	EndToEnd  map[string]reported `json:"end_to_end"`
	PerLayer  map[string]reported `json:"per_layer"`
}

type resultFile struct {
	Host      hostFacts        `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// runAll is the human entry point: every workload untraced, then a
// traced run of half the length, everything written to out.
func runAll(seed int64, seconds float64, scratch, out string) (failed int, err error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	res := resultFile{Host: host(), Seed: seed, Seconds: seconds}
	var spans []span
	for i := range workloads {
		t0 := time.Now()
		plain := newRun(&workloads[i], fullSize, seed, seconds, false, scratch)
		if err := plain.execute(); err != nil {
			return failed, err
		}
		plain.print()
		traced := newRun(&workloads[i], fullSize, seed, seconds/2, true, scratch)
		if err := traced.execute(); err != nil {
			return failed, err
		}
		traced.print()
		// Span ids are per run; shift them so the merged trace has no
		// two spans with one id.
		shift := len(spans)
		for _, s := range traced.spans {
			s.ID += shift
			if s.Parent != 0 {
				s.Parent += shift
			}
			s.Name = workloads[i].name + "/" + s.Name
			spans = append(spans, s)
		}
		failed += plain.failed + traced.failed
		res.Workloads = append(res.Workloads, workloadResult{
			Name: workloads[i].name, Ops: plain.attempted, TracedOps: traced.attempted,
			Failed: plain.failed + traced.failed, Failures: append(plain.failures, traced.failures...),
			WallS:    time.Since(t0).Seconds(),
			Slowdown: plain.loopSpeed.slowdown(),
			EndToEnd: plain.metrics(), PerLayer: traced.metrics(),
		})
	}
	if err := writeJSON(filepath.Join(out, "result.json"), res); err != nil {
		return failed, err
	}
	return failed, writeJSON(filepath.Join(out, "trace.json"), spans)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string
	compare   bool
	benchJSON string
	scratch   string
}

func main() {
	var o options
	trace := flag.Int("trace", 0, "with -workload: 1 records spans and reports the per-layer metrics")
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long a run measures, set-up included")
	flag.StringVar(&o.out, "out", "", "without -workload: directory for result.json and trace.json")
	flag.BoolVar(&o.compare, "compare", false, "compare two result.json files given as arguments")
	flag.StringVar(&o.benchJSON, "benchmark-json", "BENCHMARK.json", "where -compare reads the bounds from")
	flag.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "scratch"), "directory for temporary files")
	flag.Parse()
	o.trace = *trace == 1
	code, err := o.run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run returns the exit status: 0 for success, 1 for a failed op or a
// regression, 2 together with the error that stopped the program.
func (o options) run(args []string) (int, error) {
	bad := 0
	switch {
	case o.compare:
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare takes two result.json files")
		}
		regressed, err := compareFiles(o.benchJSON, args[0], args[1])
		if err != nil {
			return 2, err
		}
		if regressed {
			bad = 1
		}
	case o.workload == "" && o.out == "":
		return 2, fmt.Errorf("give -workload NAME for one run, or -out DIR to run every workload")
	default:
		if err := os.MkdirAll(o.scratch, 0o755); err != nil {
			return 2, err
		}
		if o.workload == "" {
			failed, err := runAll(o.seed, o.seconds, o.scratch, o.out)
			if err != nil {
				return 2, err
			}
			bad = min(failed, 1)
			break
		}
		def := findWorkload(o.workload)
		if def == nil {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		r := newRun(def, fullSize, o.seed, o.seconds, o.trace, o.scratch)
		if err := r.execute(); err != nil {
			return 2, err
		}
		r.print()
		fmt.Println(r.resultLine()) // the driver reads correct/failed from the line, not from the status
	}
	return bad, nil
}
