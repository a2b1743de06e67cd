package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mimicnet/internal/durable"
	"mimicnet/internal/obs"
)

// durableStub is the journal tests' job executor: blocks until the job's
// context dies (→ cancelled) or a token arrives on release (→ done).
func durableStub(release chan struct{}) func(ctx context.Context, j *Job) {
	return func(ctx context.Context, j *Job) {
		select {
		case <-ctx.Done():
			j.finish(StateCancelled, nil, ctx.Err().Error())
		case <-release:
			j.finish(StateDone, &Summary{FlowsStarted: 7}, "")
		}
	}
}

// TestTerminalRecordBeforeDone pins the write-ahead order of a job's
// end. While the journal lock is held, a job whose executor has finished
// it must still look running: Done open, its state unchanged and /stats
// not counting it. Once the terminal record is appended the job is done
// and counted, and a daemon recovered after a crash right then keeps it
// done instead of running it again.
func TestTerminalRecordBeforeDone(t *testing.T) {
	entered, proceed, returned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	opt := tempOptions(t, 1, 1, func(ctx context.Context, j *Job) {
		close(entered)
		<-proceed
		j.finish(StateDone, &Summary{FlowsStarted: 7}, "")
		close(returned)
	})
	reg := newTestRegistry(t, 2)
	s1, _, err := NewSchedulerWithOptions(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	s1.jmu.Lock()
	close(proceed)
	<-returned
	select {
	case <-j.Done():
		t.Error("Done closed before the terminal record was journaled")
	default:
	}
	if st := j.Status().State; st != StateRunning {
		t.Errorf("state %s before the terminal record was journaled, want running", st)
	}
	if n := s1.Stats().Done; n != 0 {
		t.Errorf("/stats counted %d done before the terminal record was journaled", n)
	}
	s1.jmu.Unlock()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job never published its terminal state")
	}
	if n := s1.Stats().Done; n != 1 {
		t.Errorf("/stats counts %d done once Done closed, want 1", n)
	}
	s1.Kill()
	s1.wg.Wait()

	opt.runFn = durableStub(nil)
	s2, rep, err := NewSchedulerWithOptions(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Kill(); s2.wg.Wait() })
	if rep.Requeued != 0 {
		t.Errorf("recovery re-queued %d jobs; the finished one must stay done", rep.Requeued)
	}
	if rj, err := s2.Job(j.ID()); err != nil || rj.Status().State != StateDone {
		t.Errorf("recovered job %s (%v), want it done", j.ID(), err)
	}
}

// TestRecoveryFailsInvalidSpec: a journaled job whose spec no longer
// validates, here an accepted record for a cell class this build does
// not have, is failed by the recovery pass with the JobSpec.Validate
// error. It is counted in the RecoveryReport and never queued, so the
// real pipeline runs no datagen for it and writes no dataset file. A
// second boot restores it failed: the journal holds one terminal entry.
func TestRecoveryFailsInvalidSpec(t *testing.T) {
	opt := tempOptions(t, 1, 1, nil)
	spec := JobSpec{Clusters: 4, Cell: "gru"}.Normalized()
	jnl, _, err := durable.OpenJournal(opt.JournalDir, durable.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(jobRecord{Type: recAccepted, ID: "j000001", Key: "k", Spec: &spec, Time: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.AppendSync(blob); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, 2)
	const want = `serve: cell "gru" unknown (supported: lstm, mlp)`
	for boot := 1; boot <= 2; boot++ {
		s, rep, err := NewSchedulerWithOptions(reg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Jobs != 1 || rep.Requeued != 0 || rep.Completed != 1 {
			t.Errorf("boot %d: recovery %s, want 1 job, 0 requeued, 1 terminal", boot, rep)
		}
		j, err := s.Job("j000001")
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.State != StateFailed || st.Error != want {
			t.Errorf("boot %d: job %s %q, want failed %q", boot, st.State, st.Error, want)
		}
		select {
		case <-j.Done():
		default:
			t.Errorf("boot %d: failed job's Done is open", boot)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkOneEach(t, opt.JournalDir, []string{"j000001"})
	if files, err := os.ReadDir(opt.DatasetDir); err != nil || len(files) != 0 {
		t.Errorf("dataset dir holds %d files (%v), want none", len(files), err)
	}
}

// TestJournalSyncsRecoveryRecordsOnly: a job appends five records —
// accepted, started, phase train, phase compose and its terminal one —
// and fsyncs two of them: accepted before Submit returns, and the
// terminal record before Done closes. The durable package's process-wide
// append counter and fsync histogram count them; no other journal is
// written while this test runs.
func TestJournalSyncsRecoveryRecordsOnly(t *testing.T) {
	appends := obs.Default().Counter("mimicnet_durable_journal_appends_total", "")
	fsyncHist := obs.Default().Histogram("mimicnet_durable_journal_fsync_seconds", "", nil)
	fsyncs := func() uint64 { c := fsyncHist.Cumulative(); return c[len(c)-1] }
	entered, proceed := make(chan struct{}), make(chan struct{})
	var s *Scheduler
	s = newTestScheduler(t, newTestRegistry(t, 2), 1, 1, func(ctx context.Context, j *Job) {
		s.enterPhase(j, "train")
		s.enterPhase(j, "compose")
		close(entered)
		<-proceed
		j.finish(StateDone, &Summary{}, "")
	})
	a0, f0 := appends.Value(), fsyncs()
	j, err := s.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f := fsyncs() - f0; f != 1 {
		t.Errorf("%d fsyncs once Submit returned, want 1 (accepted)", f)
	}
	<-entered
	if a, f := appends.Value()-a0, fsyncs()-f0; a != 4 || f != 1 {
		t.Errorf("in compose: %d appends and %d fsyncs, want 4 and 1 (started and phase records unsynced)", a, f)
	}
	close(proceed)
	<-j.Done()
	if a, f := appends.Value()-a0, fsyncs()-f0; a != 5 || f != 2 {
		t.Errorf("once done: %d appends and %d fsyncs, want 5 and 2", a, f)
	}
}

// TestSchedulerJournalRecovery kills a journaled scheduler with jobs in
// every state and rebuilds from the same directory: terminal jobs stay
// queryable, unfinished jobs are re-enqueued (growing the queue past its
// configured depth), IDs continue from where they left off.
func TestSchedulerJournalRecovery(t *testing.T) {
	reg := newTestRegistry(t, 2)
	release := make(chan struct{})
	opt := tempOptions(t, 4, 1, durableStub(release))
	s1, rep, err := NewSchedulerWithOptions(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 0 || rep.Requeued != 0 {
		t.Fatalf("fresh journal recovered %+v", rep)
	}

	finished, err := s1.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, finished, StateRunning)
	release <- struct{}{}
	waitState(t, finished, StateDone)

	running, err := s1.Submit(JobSpec{Clusters: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s1.Submit(JobSpec{Clusters: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Crash. The in-flight and queued jobs die without terminal records.
	s1.Kill()
	<-running.Done()
	<-queued.Done()

	// Rebirth from the same directory, with a deliberately undersized
	// queue: recovery must grow it to fit the backlog.
	release2 := make(chan struct{}, 2)
	release2 <- struct{}{}
	release2 <- struct{}{}
	opt.QueueDepth, opt.runFn = 1, durableStub(release2)
	s2, rep2, err := NewSchedulerWithOptions(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Jobs != 3 || rep2.Completed != 1 || rep2.Requeued != 2 {
		t.Fatalf("recovery report = %+v", rep2)
	}

	// The finished job survived with its result intact.
	done2, err := s2.Job(finished.ID())
	if err != nil {
		t.Fatal(err)
	}
	st := done2.Status()
	if st.State != StateDone || st.Result == nil || st.Result.FlowsStarted != 7 {
		t.Fatalf("recovered terminal job = %+v", st)
	}

	// The interrupted jobs re-execute to completion under the same IDs.
	for _, id := range []string{running.ID(), queued.ID()} {
		j, err := s2.Job(id)
		if err != nil {
			t.Fatalf("job %s lost in recovery: %v", id, err)
		}
		waitState(t, j, StateDone)
	}

	// IDs continue past the recovered maximum.
	release2 <- struct{}{}
	fresh, err := s2.Submit(JobSpec{Clusters: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "j000004" {
		t.Fatalf("post-recovery ID = %s, want j000004", fresh.ID())
	}
	waitState(t, fresh, StateDone)

	// Orderly shutdown compacts; a third boot replays only the snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	opt.QueueDepth, opt.runFn = 4, durableStub(nil)
	s3, rep3, err := NewSchedulerWithOptions(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Jobs != 4 || rep3.Requeued != 0 || rep3.Completed != 4 || rep3.Replayed != 0 {
		t.Fatalf("post-compaction recovery = %+v", rep3)
	}
	if len(s3.Jobs()) != 4 {
		t.Fatalf("job listing lost entries: %d", len(s3.Jobs()))
	}
	s3.Kill()
}

// TestSchedulerCrashRecoveryE2E is the acceptance drill: a real job is
// killed mid-train, the scheduler is rebuilt from the same data
// directories, the job runs to completion, and the trained artifact is
// byte-identical to one from a never-interrupted daemon.
func TestSchedulerCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real models")
	}
	spec := JobSpec{
		Clusters: 2, Racks: 1, Hosts: 2, Aggs: 1, CoresPerAgg: 1,
		WorkloadMs: 40, RunMs: 60, SmallRunMs: 50,
		Window: 4, Hidden: 6, Epochs: 40,
	}

	// Baseline: uninterrupted run in its own data dir.
	baseDir := t.TempDir()
	baseReg, err := NewRegistry(filepath.Join(baseDir, "registry"), 4)
	if err != nil {
		t.Fatal(err)
	}
	baseSched := newTestScheduler(t, baseReg, 4, 1, nil)
	bj, err := baseSched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bj, StateDone)
	key := bj.Status().ModelKey
	want, err := os.ReadFile(filepath.Join(baseDir, "registry", key+".json"))
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: same spec in a durable data dir, killed once training
	// has made progress (at least one checkpointable epoch).
	dataDir := t.TempDir()
	reg1, err := NewRegistry(filepath.Join(dataDir, "registry"), 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := SchedulerOptions{
		QueueDepth: 4, Workers: 1,
		JournalDir:    filepath.Join(dataDir, "journal"),
		CheckpointDir: filepath.Join(dataDir, "ckpt"),
		DatasetDir:    filepath.Join(dataDir, "datasets"),
	}
	s1, _, err := NewSchedulerWithOptions(reg1, opts)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Minute)
	for {
		if tp := j1.Status().Progress.Train; tp != nil && tp.Epoch >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never reported training progress")
		case <-time.After(2 * time.Millisecond):
		}
	}
	s1.Kill()
	<-j1.Done()
	if reg1.Contains(key) {
		t.Fatal("killed job cached an artifact")
	}

	// Recovery: fresh registry + scheduler over the same directories.
	reg2, err := NewRegistry(filepath.Join(dataDir, "registry"), 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, rep, err := NewSchedulerWithOptions(reg2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeued != 1 {
		t.Fatalf("recovery report = %+v, want 1 requeued", rep)
	}
	j2, err := s2.Job(j1.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, StateDone)
	if st := j2.Status(); st.Result == nil || st.Result.Cancelled {
		t.Fatalf("recovered job result = %+v", st.Result)
	}

	got, err := os.ReadFile(filepath.Join(dataDir, "registry", key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after kill-and-resume differs from uninterrupted run")
	}

	// Success cleared the training cursors.
	if files, _ := filepath.Glob(filepath.Join(dataDir, "ckpt", "*.ckpt")); len(files) != 0 {
		t.Fatalf("checkpoints survived success: %v", files)
	}
	s2.Kill()
}

// journalCounts folds a killed scheduler's journal, snapshot and
// records, into per-job counts of accepted and terminal entries. A job
// in the snapshot counts once as accepted, and once as terminal if its
// snapshotted state is.
func journalCounts(t *testing.T, dir string) (accepted, terminal map[string]int) {
	t.Helper()
	jnl, info, err := durable.OpenJournal(dir, durable.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	accepted, terminal = map[string]int{}, map[string]int{}
	if len(info.Snapshot) > 0 {
		var snap journalSnapshot
		if err := json.Unmarshal(info.Snapshot, &snap); err != nil {
			t.Fatal(err)
		}
		for _, sj := range snap.Jobs {
			accepted[sj.ID]++
			switch sj.State {
			case StateDone, StateFailed, StateCancelled:
				terminal[sj.ID]++
			}
		}
	}
	for _, r := range info.Records {
		var rec jobRecord
		if err := json.Unmarshal(r.Payload, &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case recAccepted:
			accepted[rec.ID]++
		case recDone, recFailed, recCancelled:
			terminal[rec.ID]++
		}
	}
	return accepted, terminal
}

// checkOneEach fails unless the journal names exactly the jobs in ids,
// each with one accepted and one terminal entry.
func checkOneEach(t *testing.T, dir string, ids []string) {
	t.Helper()
	accepted, terminal := journalCounts(t, dir)
	if len(accepted) != len(ids) || len(terminal) != len(ids) {
		t.Fatalf("journal names %d accepted and %d finished jobs, want %d each", len(accepted), len(terminal), len(ids))
	}
	for _, id := range ids {
		if accepted[id] != 1 || terminal[id] != 1 {
			t.Errorf("job %s: %d accepted and %d terminal entries, want 1 and 1", id, accepted[id], terminal[id])
		}
	}
}

// TestJournalOneTerminalRecordPerJob: every admitted job ends with
// exactly one accepted and one terminal entry in the journal — none
// lost, none doubled — under a cancel storm, across a crash mid-phase,
// and through a burst over queue capacity.
func TestJournalOneTerminalRecordPerJob(t *testing.T) {
	// Cancellations land on queued and running jobs alike, then a drain
	// and a crash.
	t.Run("cancel_storm", func(t *testing.T) {
		const jobs, workers = 40, 4
		rng := rand.New(rand.NewSource(1))
		opt := tempOptions(t, jobs, workers, func(ctx context.Context, j *Job) {
			select {
			case <-ctx.Done():
				j.finish(StateCancelled, nil, ctx.Err().Error())
			case <-time.After(time.Duration(idNum(j.ID())%5) * time.Millisecond):
				j.finish(StateDone, &Summary{}, "")
			}
		})
		s, _, err := NewSchedulerWithOptions(newTestRegistry(t, 2), opt)
		if err != nil {
			t.Fatal(err)
		}
		var cancels sync.WaitGroup
		var ids []string
		for i := 0; i < jobs; i++ {
			j, err := s.Submit(JobSpec{Clusters: 4})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID())
			if rng.Intn(2) == 0 {
				delay := time.Duration(rng.Intn(8000)) * time.Microsecond
				cancels.Add(1)
				go func() {
					defer cancels.Done()
					time.Sleep(delay)
					j.Cancel()
				}()
			}
		}
		cancels.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		s.Kill() // no compaction: every record stays in the segments
		checkOneEach(t, opt.JournalDir, ids)
		if st := s.Stats(); st.Cancelled == 0 || st.Done == 0 {
			t.Fatalf("the storm did not mix outcomes: %+v", st)
		}
	})

	// A crash with one job in train and another in compose: their
	// started and phase records are not synced, and replay re-enqueues
	// both whatever those say. Each runs once more and ends once.
	t.Run("kill_mid_phase", func(t *testing.T) {
		reg := newTestRegistry(t, 2)
		reached := make(chan struct{}, 2)
		var s1 *Scheduler
		opt := tempOptions(t, 4, 2, func(ctx context.Context, j *Job) {
			s1.enterPhase(j, "train")
			if j.spec.Seed == 2 {
				s1.enterPhase(j, "compose")
			}
			reached <- struct{}{}
			<-ctx.Done()
			j.finish(StateCancelled, nil, ctx.Err().Error())
		})
		var err error
		s1, _, err = NewSchedulerWithOptions(reg, opt)
		if err != nil {
			t.Fatal(err)
		}
		training, err := s1.Submit(JobSpec{Clusters: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		composing, err := s1.Submit(JobSpec{Clusters: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		<-reached
		<-reached
		if p := training.Status().Progress.Phase; p != "train" {
			t.Fatalf("first job in phase %q, want train", p)
		}
		if p := composing.Status().Progress.Phase; p != "compose" {
			t.Fatalf("second job in phase %q, want compose", p)
		}
		s1.Kill()
		<-training.Done()
		<-composing.Done()
		s1.wg.Wait()

		var mu sync.Mutex
		runs := map[string]int{}
		opt.runFn = func(ctx context.Context, j *Job) {
			mu.Lock()
			runs[j.ID()]++
			mu.Unlock()
			j.finish(StateDone, &Summary{}, "")
		}
		s2, rep, err := NewSchedulerWithOptions(reg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requeued != 2 || rep.Completed != 0 {
			t.Fatalf("recovery report = %+v, want both jobs re-queued", rep)
		}
		ids := []string{training.ID(), composing.ID()}
		for _, id := range ids {
			j, err := s2.Job(id)
			if err != nil {
				t.Fatalf("job %s lost in recovery: %v", id, err)
			}
			waitState(t, j, StateDone)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s2.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		s2.Kill()
		for _, id := range ids {
			if runs[id] != 1 {
				t.Errorf("job %s ran %d times after recovery, want 1", id, runs[id])
			}
		}
		checkOneEach(t, opt.JournalDir, ids)
	})

	// A burst of concurrent submissions over HTTP, three times the queue
	// capacity, while the only worker is held: every 429 a client gets
	// is counted by the scheduler, and every 202 is a job that runs
	// exactly once and is journaled once.
	t.Run("burst_over_capacity", func(t *testing.T) {
		const capacity, burst = 4, 12
		gate := make(chan struct{})
		var mu sync.Mutex
		runs := map[string]int{}
		reg := newTestRegistry(t, 2)
		opt := tempOptions(t, capacity, 1, func(ctx context.Context, j *Job) {
			mu.Lock()
			runs[j.ID()]++
			mu.Unlock()
			<-gate
			j.finish(StateDone, &Summary{}, "")
		})
		s, _, err := NewSchedulerWithOptions(reg, opt)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewServer(s, reg).Handler())
		defer ts.Close()
		c := NewClient(ts.URL)

		var wg sync.WaitGroup
		var admitted []string
		busy := 0
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				st, err := c.Submit(JobSpec{Clusters: 4, Seed: seed})
				mu.Lock()
				defer mu.Unlock()
				var be *BusyError
				switch {
				case err == nil:
					admitted = append(admitted, st.ID)
				case errors.As(err, &be):
					busy++
				default:
					t.Errorf("submit: %v", err)
				}
			}(int64(i + 1))
		}
		wg.Wait()
		if busy == 0 || len(admitted)+busy != burst || len(admitted) > capacity+1 {
			t.Fatalf("%d admitted and %d rejected of %d over a queue of %d and one held worker", len(admitted), busy, burst, capacity)
		}
		if n := s.cRejectFull.Value(); n != uint64(busy) {
			t.Errorf("scheduler counted %d queue-full rejections, clients got %d 429s", n, busy)
		}
		close(gate)
		for _, id := range admitted {
			if _, err := c.Wait(context.Background(), id, 10*time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		s.Kill()
		if len(runs) != len(admitted) {
			t.Errorf("%d jobs ran, %d were admitted", len(runs), len(admitted))
		}
		for _, id := range admitted {
			if runs[id] != 1 {
				t.Errorf("admitted job %s ran %d times, want 1", id, runs[id])
			}
		}
		checkOneEach(t, opt.JournalDir, admitted)
	})
}
