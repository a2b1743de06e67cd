package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mimicnet/internal/serve"
)

// smokeSpec is the smallest job that exercises the real pipeline:
// 2-cluster estimate, 1-rack clusters, thumbnail model. Trains in well
// under a second.
func smokeSpec() serve.JobSpec {
	return serve.JobSpec{
		Clusters: 2, Racks: 1, Hosts: 2, Aggs: 1, CoresPerAgg: 1,
		WorkloadMs: 40, RunMs: 60, SmallRunMs: 50,
		Window: 4, Hidden: 6, Epochs: 1,
	}
}

// smokeRecovery is smoke phase 5, the kill-and-resume drill: a daemon is
// killed mid-train (after at least one epoch-boundary checkpoint has
// landed on disk), then a successor on the same data dir must recover
// the job from the journal, resume its training from the checkpoint,
// and store the finished artifact.
func smokeRecovery(ctx context.Context, dataDir string, queueDepth, workers int, drainTimeout time.Duration) error {
	// Enough epochs that the kill lands mid-train; the thumbnail model
	// checkpoints at every epoch boundary (the cost throttle always
	// persists the first cut).
	spec := smokeSpec()
	spec.Epochs = 40

	d1, err := newDaemon("127.0.0.1:0", dataDir, 8, queueDepth, workers, drainTimeout)
	if err != nil {
		return err
	}
	defer d1.ln.Close()
	j1, err := d1.sched.Submit(spec)
	if err != nil {
		return err
	}
	for {
		if tp := j1.Status().Progress.Train; tp != nil && tp.Epoch >= 2 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("job %s never reported training progress", j1.ID())
		case <-time.After(2 * time.Millisecond):
		}
	}
	d1.sched.Kill()
	select {
	case <-j1.Done():
	case <-ctx.Done():
		return fmt.Errorf("killed job never wound down")
	}
	ckpts, _ := filepath.Glob(filepath.Join(dataDir, "ckpt", "*.ckpt"))
	if len(ckpts) == 0 {
		return fmt.Errorf("kill left no training checkpoints under %s", dataDir)
	}
	key := j1.Status().ModelKey
	if d1.reg.Contains(key) {
		return fmt.Errorf("killed job cached a finished artifact")
	}

	// Successor over the same directories: newDaemon's recovery pass
	// re-enqueues the journaled job under its original ID.
	d2, err := newDaemon("127.0.0.1:0", dataDir, 8, queueDepth, workers, drainTimeout)
	if err != nil {
		return err
	}
	defer d2.ln.Close()
	j2, err := d2.sched.Job(j1.ID())
	if err != nil {
		return fmt.Errorf("journaled job lost in recovery: %w", err)
	}
	select {
	case <-j2.Done():
	case <-ctx.Done():
		return fmt.Errorf("recovered job never finished")
	}
	if st := j2.Status(); st.State != serve.StateDone || st.Result == nil || st.Result.Cancelled {
		return fmt.Errorf("recovered job ended state=%s result=%+v", st.State, st.Result)
	}
	if !d2.reg.Contains(key) {
		return fmt.Errorf("recovered job's artifact missing from the registry")
	}
	if err := d2.sched.Close(); err != nil {
		return err
	}
	log.Printf("smoke: crash recovery ok — job %s killed mid-train (%d checkpoint files on disk), resumed and finished by the rebuilt daemon",
		j1.ID(), len(ckpts))
	return nil
}

// runSmoke is the serve-smoke acceptance test, against the real daemon
// stack (real listener, real signal handling):
//
//  1. cold job over HTTP completes and is not a cache hit;
//  2. the identical job resubmitted is a registry hit visible in /stats,
//     with a bitwise-identical estimate;
//  3. a batch of warm jobs measures steady-state throughput;
//  4. a second daemon on the live daemon's data dir refuses to start
//     (its boot compaction would delete the live journal segment);
//  5. an isolated daemon is killed mid-train after at least one
//     checkpoint write; a daemon rebuilt on its data dir re-enqueues the
//     job from the journal, resumes it from the checkpoint, and lands
//     the artifact in the registry;
//  6. SIGTERM mid-job drains: the in-flight job finishes (not
//     cancelled), a client waiting on it in Client.Wait gets its
//     terminal status, new submissions are rejected, and the
//     process-level serve loop returns with http.Server.Shutdown done
//     within its context. (Last: it signals the whole process.)
func runSmoke(queueDepth, workers int, drainTimeout time.Duration) error {
	dataDir, err := os.MkdirTemp("", "mimicnet-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	d, err := newDaemon("127.0.0.1:0", dataDir, 8, queueDepth, workers, drainTimeout)
	if err != nil {
		return err
	}
	go d.Serve()
	c := serve.NewClient(d.URL())
	for i := 0; !c.Healthy(); i++ {
		if i > 100 {
			return fmt.Errorf("daemon at %s never became healthy", d.URL())
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Printf("smoke: daemon up at %s", d.URL())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	runJob := func(spec serve.JobSpec) (serve.JobStatus, time.Duration, error) {
		t0 := time.Now()
		st, err := c.Submit(spec)
		if err != nil {
			return st, 0, err
		}
		st, err = c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("job %s: state=%s err=%q", st.ID, st.State, st.Error)
		}
		return st, time.Since(t0), err
	}

	// 1. Cold job: trains, composes, delivers an estimate.
	cold, coldDur, err := runJob(smokeSpec())
	if err != nil {
		return fmt.Errorf("cold job: %w", err)
	}
	if cold.Result.CacheHit {
		return fmt.Errorf("cold job reported a cache hit on an empty registry")
	}
	if cold.Result.FCTSeconds.N == 0 {
		return fmt.Errorf("cold job produced no FCT samples")
	}
	// The train phase must report real progress (it was a silent gap
	// before the minibatch trainer); the final-epoch report survives the
	// phase change, so the terminal status is safe to assert on even
	// though the job trains in milliseconds.
	tp := cold.Progress.Train
	if tp == nil {
		return fmt.Errorf("cold job reported no training progress")
	}
	if tp.Epoch != tp.Epochs || tp.Epochs == 0 || tp.SamplesPerSec <= 0 || tp.BatchSize < 1 ||
		(tp.Direction != "ingress" && tp.Direction != "egress") {
		return fmt.Errorf("cold job training progress is malformed: %+v", *tp)
	}
	log.Printf("smoke: cold job %s done in %v (train %.0fms, compose %.0fms, %d FCT samples, "+
		"last train report %s epoch %d/%d @ %.0f samples/sec)",
		cold.ID, coldDur.Round(time.Millisecond), cold.Result.TrainMs, cold.Result.ComposeMs,
		cold.Result.FCTSeconds.N, tp.Direction, tp.Epoch, tp.Epochs, tp.SamplesPerSec)

	// 2. Warm job: identical spec must skip training via the registry.
	warm, warmDur, err := runJob(smokeSpec())
	if err != nil {
		return fmt.Errorf("warm job: %w", err)
	}
	if !warm.Result.CacheHit {
		return fmt.Errorf("identical resubmission did not hit the model registry")
	}
	if warm.ModelKey != cold.ModelKey {
		return fmt.Errorf("identical specs keyed differently: %s vs %s", warm.ModelKey, cold.ModelKey)
	}
	if warm.Result.FCTSeconds != cold.Result.FCTSeconds {
		return fmt.Errorf("warm estimate diverged from cold: %+v vs %+v",
			warm.Result.FCTSeconds, cold.Result.FCTSeconds)
	}
	if warm.Progress.Train != nil {
		return fmt.Errorf("warm job reported training progress despite the registry hit")
	}
	stats, err := c.Stats()
	if err != nil {
		return err
	}
	if stats.Registry.Hits() == 0 {
		return fmt.Errorf("/stats shows no registry hits after resubmission: %+v", stats.Registry)
	}
	log.Printf("smoke: warm job %s done in %v — cache hit confirmed in /stats (hits=%d)",
		warm.ID, warmDur.Round(time.Millisecond), stats.Registry.Hits())

	// 3. Steady-state throughput: a small batch of warm jobs.
	const batch = 6
	t0 := time.Now()
	ids := make([]string, 0, batch)
	for i := 0; i < batch; i++ {
		st, err := c.Submit(smokeSpec())
		if err != nil {
			return fmt.Errorf("warm batch submit %d: %w", i, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st, err := c.Wait(ctx, id, 10*time.Millisecond, nil)
		if err != nil {
			return fmt.Errorf("warm batch wait %s: %w", id, err)
		}
		if st.State != serve.StateDone || !st.Result.CacheHit {
			return fmt.Errorf("warm batch job %s: state=%s cacheHit=%v", id, st.State, st.Result != nil && st.Result.CacheHit)
		}
	}
	batchDur := time.Since(t0)
	jobsPerSec := float64(batch) / batchDur.Seconds()
	log.Printf("smoke: %d warm jobs in %v (%.1f jobs/sec)", batch, batchDur.Round(time.Millisecond), jobsPerSec)

	// 4. One daemon per data dir: a second one on the live root must
	// refuse to boot before its recovery touches the live journal.
	if _, err = newDaemon("127.0.0.1:0", dataDir, 8, queueDepth, workers, drainTimeout); err == nil {
		return fmt.Errorf("a second daemon started on the live data dir %s", dataDir)
	}
	log.Printf("smoke: second daemon on the live data dir refused: %v", err)

	// 5. Crash recovery: a durable daemon killed mid-train must leave a
	// journal entry and a training checkpoint behind, and a successor on
	// the same -data-dir must finish the job. Runs against an isolated
	// daemon on its own data dir under the smoke root (no Serve loop —
	// the SIGTERM below must only hit the main one) with direct
	// scheduler handles, the same wiring newDaemon gives the production
	// path.
	if err := smokeRecovery(ctx, filepath.Join(dataDir, "recovery"), queueDepth, workers, drainTimeout); err != nil {
		return fmt.Errorf("crash recovery: %w", err)
	}

	// 6. Drain: SIGTERM ourselves mid-job through the real signal path.
	// A long-horizon job: flows keep arriving for the whole run so the
	// compose phase holds real wall-clock time for the signal to land in.
	long := smokeSpec()
	long.Clusters = 4
	long.WorkloadMs = 8000
	long.RunMs = 8000
	inflight, err := c.Submit(long)
	if err != nil {
		return fmt.Errorf("drain-test submit: %w", err)
	}
	for {
		st, err := c.Job(inflight.ID)
		if err != nil {
			return err
		}
		if st.State == serve.StateRunning && st.Progress.Phase == "compose" && st.Progress.Events > 0 {
			break
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			return fmt.Errorf("drain-test job finished before SIGTERM could land (state %s); raise run_ms", st.State)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for drain-test job to start composing")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// A client waiting on the job across the drain, in held GETs of up
	// to a second each.
	type waited struct {
		st  serve.JobStatus
		err error
	}
	waiter := make(chan waited, 1)
	go func() {
		st, err := c.Wait(ctx, inflight.ID, time.Second, nil)
		waiter <- waited{st, err}
	}()
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		return err
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	// Signal delivery is asynchronous; poll until admission closes.
	rejected := false
	for i := 0; i < 1000 && !rejected; i++ {
		_, err := c.Submit(smokeSpec())
		switch {
		case err == nil:
			time.Sleep(5 * time.Millisecond) // raced ahead of the signal; try again
		case strings.Contains(err.Error(), "draining"):
			rejected = true
		default:
			return fmt.Errorf("submit during drain failed unexpectedly: %w", err)
		}
	}
	if !rejected {
		return fmt.Errorf("submissions were never rejected after SIGTERM")
	}
	// The in-flight job must finish normally, not be cancelled by the
	// drain, and its waiting client must get that terminal status over
	// HTTP before the listener closes.
	w := <-waiter
	if w.err != nil {
		return fmt.Errorf("client waiting across the drain: %w", w.err)
	}
	if w.st.State != serve.StateDone {
		return fmt.Errorf("in-flight job did not survive the drain: state=%s err=%q", w.st.State, w.st.Error)
	}
	if w.st.Result.Cancelled {
		return fmt.Errorf("in-flight job reported partial results after drain")
	}
	select {
	case <-d.done:
	case <-ctx.Done():
		return fmt.Errorf("daemon serve loop never returned after drain")
	}
	if d.shutdownErr != nil {
		return fmt.Errorf("http shutdown did not finish within its context: %w", d.shutdownErr)
	}
	log.Printf("smoke: SIGTERM drain ok — in-flight job %s finished and reached its waiting client, new submissions rejected, http shutdown clean", inflight.ID)
	return nil
}
