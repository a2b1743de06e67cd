package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// tempOptions configures a scheduler over fresh journal, checkpoint and
// dataset directories; a nil runFn selects the real pipeline.
func tempOptions(t *testing.T, queueDepth, workers int, runFn func(context.Context, *Job)) SchedulerOptions {
	t.Helper()
	return SchedulerOptions{
		QueueDepth: queueDepth, Workers: workers,
		JournalDir:    t.TempDir(),
		CheckpointDir: t.TempDir(),
		DatasetDir:    t.TempDir(),
		runFn:         runFn,
	}
}

// newTestScheduler builds a scheduler over tempOptions. When the test
// ends it is killed and its workers are awaited, before the directories
// are removed.
func newTestScheduler(t *testing.T, reg *Registry, queueDepth, workers int, runFn func(context.Context, *Job)) *Scheduler {
	t.Helper()
	s, _, err := NewSchedulerWithOptions(reg, tempOptions(t, queueDepth, workers, runFn))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Kill()
		s.wg.Wait()
	})
	return s
}

// TestSchedulerRequiresDirs: the scheduler has one configuration, the
// durable one, so each of its directories is required and a missing one
// is named; the registry needs its directory too.
func TestSchedulerRequiresDirs(t *testing.T) {
	if _, err := NewRegistry("", 2); err == nil {
		t.Fatal("registry built without a directory")
	}
	reg := newTestRegistry(t, 2)
	for field, unset := range map[string]func(*SchedulerOptions){
		"JournalDir":    func(o *SchedulerOptions) { o.JournalDir = "" },
		"CheckpointDir": func(o *SchedulerOptions) { o.CheckpointDir = "" },
		"DatasetDir":    func(o *SchedulerOptions) { o.DatasetDir = "" },
	} {
		opt := tempOptions(t, 1, 1, nil)
		unset(&opt)
		if _, _, err := NewSchedulerWithOptions(reg, opt); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("without %s: err = %v, want one naming it", field, err)
		}
	}
}

// stubScheduler returns a scheduler whose runFn blocks until the job's
// context is cancelled or the returned release channel is closed, so
// admission/drain/cancel behavior is testable without training models.
func stubScheduler(t *testing.T, queueDepth, workers int) (*Scheduler, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s := newTestScheduler(t, newTestRegistry(t, 2), queueDepth, workers, func(ctx context.Context, j *Job) {
		select {
		case <-ctx.Done():
			j.finish(StateCancelled, nil, ctx.Err().Error())
		case <-release:
			j.finish(StateDone, &Summary{}, "")
		}
	})
	return s, release
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if st := j.Status(); st.State == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never reached %s (now %s)", j.ID(), want, j.Status().State)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestSchedulerAdmissionControl: the bounded queue rejects overflow with
// errQueueFull instead of blocking or dropping silently.
func TestSchedulerAdmissionControl(t *testing.T) {
	s, release := stubScheduler(t, 1, 1)
	defer close(release)

	running, err := s.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning) // occupies the only worker

	if _, err := s.Submit(JobSpec{Clusters: 4}); err != nil {
		t.Fatalf("queue-filling submit failed: %v", err)
	}
	if _, err := s.Submit(JobSpec{Clusters: 4}); !errors.Is(err, errQueueFull) {
		t.Fatalf("overflow submit: err = %v, want errQueueFull", err)
	}
	if ra := s.RetryAfter(); ra < 1 {
		t.Fatalf("RetryAfter = %d, want >= 1", ra)
	}
}

// TestSchedulerCancel covers both cancellation paths: a running job stops
// via its context; a queued job never executes.
func TestSchedulerCancel(t *testing.T) {
	s, release := stubScheduler(t, 2, 1)
	defer close(release)

	running, err := s.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}

	queued.Cancel()
	running.Cancel()
	waitState(t, running, StateCancelled)
	waitState(t, queued, StateCancelled)

	st := s.Stats()
	if st.Cancelled != 2 {
		t.Fatalf("cancelled count = %d, want 2", st.Cancelled)
	}
}

// TestSchedulerDeadline: a job deadline cancels the run cooperatively.
func TestSchedulerDeadline(t *testing.T) {
	s, release := stubScheduler(t, 2, 1)
	defer close(release)
	j, err := s.Submit(JobSpec{Clusters: 4, DeadlineMs: 30})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled)
}

// TestSchedulerDrain: draining rejects new submissions while in-flight
// and queued jobs run to completion.
func TestSchedulerDrain(t *testing.T) {
	s, release := stubScheduler(t, 4, 1)

	running, err := s.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Admission must close before the drain completes.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(JobSpec{Clusters: 4}); !errors.Is(err, errDraining) {
		t.Fatalf("submit during drain: err = %v, want errDraining", err)
	}

	close(release) // let the in-flight and queued jobs finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitState(t, running, StateDone)
	waitState(t, queued, StateDone)

	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestJobReportsTrainProgress runs the real pipeline and checks the
// train phase is no longer a silent gap: the job's Progress carries
// per-epoch training reports, retained after the phase moves on, and a
// registry hit (no training) leaves them empty.
func TestJobReportsTrainProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real models")
	}
	reg := newTestRegistry(t, 4)
	s := newTestScheduler(t, reg, 4, 1, nil)
	spec := JobSpec{
		Clusters: 2, Racks: 1, Hosts: 2, Aggs: 1, CoresPerAgg: 1,
		WorkloadMs: 40, RunMs: 60, SmallRunMs: 50,
		Window: 4, Hidden: 6, Epochs: 2,
	}
	cold, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cold, StateDone)
	tp := cold.Status().Progress.Train
	if tp == nil {
		t.Fatal("cold job finished with no training progress")
	}
	if tp.Epoch != 2 || tp.Epochs != 2 || tp.SamplesPerSec <= 0 || tp.Samples <= 0 {
		t.Fatalf("train progress = %+v", tp)
	}
	if tp.Direction != "ingress" && tp.Direction != "egress" {
		t.Fatalf("train progress direction = %q", tp.Direction)
	}
	if tp.BatchSize < 1 {
		t.Fatalf("train progress batch size = %d", tp.BatchSize)
	}

	warm, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, warm, StateDone)
	if warm.Status().Progress.Train != nil {
		t.Fatal("registry hit reported training progress")
	}
}

// TestJobCancelledMidTrain: cancelling during the train phase stops the
// job promptly with partial training discarded.
func TestJobCancelledMidTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real models")
	}
	reg := newTestRegistry(t, 4)
	s := newTestScheduler(t, reg, 4, 1, nil)
	spec := JobSpec{
		Clusters: 2, Racks: 1, Hosts: 2, Aggs: 1, CoresPerAgg: 1,
		WorkloadMs: 60, RunMs: 60, SmallRunMs: 60,
		Window: 4, Hidden: 24, Epochs: 500, // long enough to cancel mid-train
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Minute)
	for j.Status().Progress.Train == nil {
		select {
		case <-deadline:
			t.Fatal("job never reported training progress")
		case <-time.After(2 * time.Millisecond):
		}
	}
	j.Cancel()
	waitState(t, j, StateCancelled)
	if reg.Contains(j.key) {
		t.Fatal("partially trained model was cached")
	}
}

// TestJobCancelledMidTune: cancelling a tuned job during its search
// stops the job within moments, not after the rest of the budget (about
// 4 s uncancelled here), and caches nothing.
func TestJobCancelledMidTune(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes real models")
	}
	reg := newTestRegistry(t, 4)
	s := newTestScheduler(t, reg, 4, 1, nil)
	defer s.Close()
	spec := JobSpec{Clusters: 2, Tune: 2}.Normalized()
	// A cached dataset puts the job straight into the search.
	if _, _, err := s.datasetsForSpec(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPhase := time.After(time.Minute)
	for j.Status().Progress.Phase != "train" {
		select {
		case <-waitPhase:
			t.Fatal("job never entered the train phase")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// Let the search get going before cancelling it.
	time.Sleep(300 * time.Millisecond)
	cancelled := time.Now()
	j.Cancel()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("job still running 2s after cancel")
	}
	st := j.Status()
	if st.State != StateCancelled {
		t.Fatalf("state %s (%s), want cancelled", st.State, st.Error)
	}
	if st.Progress.Train != nil {
		t.Fatal("cancel landed after the search: the final training reported progress")
	}
	if reg.Contains(j.key) {
		t.Fatal("a cancelled tuned job cached its models")
	}
	t.Logf("cancelled %v after the request", time.Since(cancelled))
}

// TestSchedulerRejectsInvalidSpec: validation happens at admission so the
// queue never holds an unrunnable job.
func TestSchedulerRejectsInvalidSpec(t *testing.T) {
	s, release := stubScheduler(t, 2, 1)
	defer close(release)
	// One row per bound; the error must name the field by its JSON key.
	for _, tc := range []struct {
		field string
		spec  JobSpec
	}{
		{"clusters", JobSpec{Clusters: 1}},
		{"protocol", JobSpec{Clusters: 4, Protocol: "carrier-pigeon"}},
		{"clusters", JobSpec{Clusters: maxClusters + 1}},
		{"racks", JobSpec{Racks: maxTopoFanout + 1}},
		{"hosts", JobSpec{Hosts: maxTopoFanout + 1}},
		{"aggs", JobSpec{Aggs: maxTopoFanout + 1}},
		{"cores_per_agg", JobSpec{CoresPerAgg: maxTopoFanout + 1}},
		{"hidden", JobSpec{Hidden: maxHidden + 1}},
		{"layers", JobSpec{Layers: maxLayers + 1}},
		{"window", JobSpec{Window: maxWindow + 1}},
		{"epochs", JobSpec{Epochs: maxEpochs + 1}},
		{"batch_size", JobSpec{BatchSize: maxBatchSize + 1}},
		{"tune", JobSpec{Tune: maxTune + 1}},
		{"tune", JobSpec{Tune: -1}},
		{"workload_ms", JobSpec{WorkloadMs: maxHorizonMs + 1}},
		{"run_ms", JobSpec{RunMs: maxHorizonMs + 1}},
		{"small_run_ms", JobSpec{SmallRunMs: maxHorizonMs + 1}},
	} {
		_, err := s.Submit(tc.spec)
		if err == nil {
			t.Fatalf("%s: spec %+v admitted", tc.field, tc.spec)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
	// Every bound is inclusive: a spec sitting on all of them validates.
	atLimit := JobSpec{
		Clusters: maxClusters, Racks: maxTopoFanout, Hosts: maxTopoFanout,
		Aggs: maxTopoFanout, CoresPerAgg: maxTopoFanout,
		Hidden: maxHidden, Layers: maxLayers, Window: maxWindow,
		Epochs: maxEpochs, BatchSize: maxBatchSize, Tune: maxTune,
		WorkloadMs: maxHorizonMs, RunMs: maxHorizonMs, SmallRunMs: maxHorizonMs,
	}.Normalized()
	if err := atLimit.Validate(); err != nil {
		t.Errorf("spec at every limit rejected: %v", err)
	}
	if _, err := s.Job("j999999"); !errors.Is(err, errNotFound) {
		t.Fatal("lookup of unknown job did not fail")
	}
}
