package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mimicnet/internal/obs"
	"mimicnet/internal/serve"
)

// serve_mix sizes: dataset keys × model variants trained in set-up, the
// cluster counts warm jobs cycle through, and the closed-loop clients of
// the throughput phase.
const (
	serveKeys     = 6
	serveWarmPoll = 4 * time.Millisecond
	serveParJobs  = 48
)

var (
	serveHiddens  = []int{12, 16}
	serveClusters = []int{4, 8, 16}
)

// inferSteps is the cell behind /metrics' inference-step counter; the
// benchmark reads it in process to learn how much model work a job did.
var inferSteps = obs.Default().Counter("mimicnet_core_inference_steps_total", "")

// daemon is mimicnetd's serving stack over a fresh data directory,
// listening on loopback.
type daemon struct {
	root  string
	sched *serve.Scheduler
	http  *httptest.Server
	cl    *serve.Client

	// The scheduler's own cells, as NewServer bound them to /metrics.
	datasetHits, datasetMiss, rejectedFull *obs.Counter
}

func startDaemon(r *run) (*daemon, error) {
	root, err := os.MkdirTemp(r.scratch, "serve-")
	if err != nil {
		return nil, err
	}
	reg, err := serve.NewRegistry(filepath.Join(root, "registry"), 2*serveKeys*len(serveHiddens))
	if err != nil {
		return nil, err
	}
	sched, _, err := serve.NewSchedulerWithOptions(reg, serve.SchedulerOptions{
		Workers:       min(r.ncpu, 2),
		JournalDir:    filepath.Join(root, "journal"),
		CheckpointDir: filepath.Join(root, "ckpt"),
		DatasetDir:    filepath.Join(root, "datasets"),
	})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(serve.NewServer(sched, reg).Handler())
	return &daemon{
		root: root, sched: sched, http: srv, cl: serve.NewClient(srv.URL),
		datasetHits:  obs.Default().Counter(`mimicnet_serve_dataset_cache_total{result="hit"}`, ""),
		datasetMiss:  obs.Default().Counter(`mimicnet_serve_dataset_cache_total{result="miss"}`, ""),
		rejectedFull: obs.Default().Counter(`mimicnet_serve_jobs_rejected_total{reason="queue_full"}`, ""),
	}, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.sched.Drain(ctx) // a job still running at the deadline is abandoned with the process
	_ = d.sched.Close()    // the journal lives in a directory removed on the next line
	d.http.Close()
	os.RemoveAll(d.root)
}

// jobTimes is one job as its client saw it.
type jobTimes struct {
	sent, accepted, seen time.Time
	st                   serve.JobStatus
}

// runJob submits spec and waits for it, closed loop.
func (d *daemon) runJob(spec serve.JobSpec) (jobTimes, error) {
	jt := jobTimes{sent: time.Now()}
	st, err := d.cl.Submit(spec)
	jt.accepted = time.Now()
	if err != nil {
		return jt, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	jt.st, err = d.cl.Wait(ctx, st.ID, serveWarmPoll, nil)
	jt.seen = time.Now()
	switch {
	case err != nil:
		return jt, err
	case jt.st.State != serve.StateDone:
		return jt, fmt.Errorf("job %s ended %s: %s", st.ID, jt.st.State, jt.st.Error)
	case jt.st.Result == nil || jt.st.Result.Cancelled || jt.st.Result.FlowsCompleted == 0:
		return jt, fmt.Errorf("job %s: no usable result", st.ID)
	case jt.st.Started == nil || jt.st.Finished == nil:
		return jt, fmt.Errorf("job %s: done without timestamps", st.ID)
	}
	return jt, nil
}

// outcome is what equal (model key, clusters) jobs must agree on: the
// summary without its wall-clock fields.
func outcome(st serve.JobStatus) string {
	s := *st.Result
	s.TrainMs, s.ComposeMs, s.SimSecPerSec, s.CacheHit = 0, 0, 0, false
	b, _ := json.Marshal(s) // a struct of numbers and bools always encodes
	return fmt.Sprintf("%s %s", st.ModelKey[:12], b)
}

// setupServe starts the daemon and trains every model the loop will
// ask for: serveKeys traffic seeds, each under two model variants, so
// that the second variant of each seed finds its dataset cached.
func setupServe(r *run) (*loop, error) {
	d, err := startDaemon(r)
	if err != nil {
		return nil, err
	}
	spec := func(key, hidden, clusters int) serve.JobSpec {
		s := thumbnail(subSeed(r.seed, key), clusters)
		s.Hidden = hidden
		return s
	}
	built := &opRec{r: r}
	for key := 0; key < serveKeys; key++ {
		for _, hidden := range serveHiddens {
			trained0 := trainedSamples.Value()
			jt, err := d.runJob(spec(key, hidden, serveClusters[0]))
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("cold job: %w", err)
			}
			if jt.st.Result.CacheHit {
				d.stop()
				return nil, fmt.Errorf("cold job %s hit the registry of a fresh daemon", jt.st.ID)
			}
			r.observe("serve.cold_job_s", jt.seen.Sub(jt.sent).Seconds())
			r.observe("serve.train_phase_s", jt.st.Result.TrainMs/1e3)
			built.phases = append(built.phases, phase{
				name: "serve.cold_train", sec: jt.st.Result.TrainMs / 1e3,
				work: float64(trainedSamples.Value() - trained0), nominal: serveNominal.train,
			})
		}
	}
	hits, miss := d.datasetHits.Value(), d.datasetMiss.Value()
	if want := uint64(serveKeys * (len(serveHiddens) - 1)); hits != want {
		d.stop()
		return nil, fmt.Errorf("dataset cache hits %d, want %d", hits, want)
	}
	r.set("serve.dataset_cache_hit_share", 100*ratio(float64(hits), float64(hits+miss)))

	kinds := serveKeys * len(serveClusters)
	warm := func(kind int) serve.JobSpec {
		return spec(kind%serveKeys, serveHiddens[0], serveClusters[kind/serveKeys])
	}
	return &loop{
		built: built,
		kinds: kinds,
		op: func(o *opRec) error {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			steps0 := inferSteps.Value()
			jt, err := d.runJob(warm(o.sub))
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&m1)
			res := jt.st.Result
			// Only the compose run grows with the traffic drawn; what the
			// daemon adds around it stays as measured.
			o.phases = append(o.phases, phase{
				name: "serve.compose", sec: res.ComposeMs / 1e3,
				bytes: float64(m1.TotalAlloc - m0.TotalAlloc),
				work:  float64(res.Packets + inferSteps.Value() - steps0), nominal: serveNominal.compose,
			})
			if !res.CacheHit {
				return fmt.Errorf("warm job %s trained again", jt.st.ID)
			}
			// The daemon stamps jobs with the wall clock; in one process
			// that is the clock the client reads too.
			started, finished := *jt.st.Started, *jt.st.Finished
			// A worker may pick the job up before the POST has returned;
			// the spans still tile the op, each starting where the last ended.
			edges := []time.Time{jt.sent, jt.accepted, started, finished, jt.seen}
			for i, name := range []string{"serve.submit", "serve.queue_wait", "serve.run", "serve.notify_lag"} {
				if edges[i+1].Before(edges[i]) {
					edges[i+1] = edges[i]
				}
				o.childSpan(name, edges[i], edges[i+1])
			}
			o.count("serve.warm_job_ms", jt.seen.Sub(jt.sent).Seconds()*1e3)
			o.count("serve.submit_ms", jt.accepted.Sub(jt.sent).Seconds()*1e3)
			o.count("serve.queue_wait_ms", started.Sub(jt.st.Submitted).Seconds()*1e3)
			o.count("serve.run_ms", finished.Sub(started).Seconds()*1e3)
			o.count("serve.notify_lag_ms", jt.seen.Sub(finished).Seconds()*1e3)
			o.count("serve.compose_phase_s", res.ComposeMs/1e3)
			return r.checkSame(fmt.Sprintf("serve key=%d clusters=%d", o.sub%serveKeys, warm(o.sub).Clusters), outcome(jt.st))
		},
		after: func() error {
			if !r.trace {
				return nil
			}
			rate, err := d.throughput(r, warm, kinds)
			if err != nil {
				return err
			}
			r.set("serve.jobs_per_s", rate)
			st, err := d.cl.Stats()
			if err != nil {
				return err
			}
			reg := st.Registry
			r.set("serve.registry_hit_share", 100*ratio(float64(reg.Hits()), float64(reg.Hits()+reg.Misses)))
			r.set("serve.rejected", float64(d.rejectedFull.Value()))
			return nil
		},
		close: d.stop,
	}, nil
}

// throughput drives serveParJobs warm jobs from as many closed-loop
// clients as the daemon has workers and returns jobs per second.
func (d *daemon) throughput(r *run, warm func(kind int) serve.JobSpec, kinds int) (float64, error) {
	clients := min(r.ncpu, 2)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < serveParJobs && errs[c] == nil; i += clients {
				_, errs[c] = d.runJob(warm(i % kinds))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("throughput phase: %w", err)
	}
	return serveParJobs / elapsed, nil
}
