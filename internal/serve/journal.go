package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"mimicnet/internal/durable"
	"mimicnet/internal/obs"
)

// The job journal makes the scheduler crash-recoverable: every lifecycle
// transition is appended to a write-ahead journal, and the two that
// recovery acts on (accepted, terminal) are fsynced BEFORE the effect is
// acknowledged, so a daemon killed at any instant can rebuild its job
// table on the next boot. Recovery re-enqueues jobs that never reached a
// terminal state, and fails those whose spec no longer validates (one
// journaled by a build that accepted more); re-execution is idempotent
// because the model registry content-addresses artifacts (a job whose
// training finished before the crash hits the registry) and the
// training checkpointer resumes interrupted trainings from their last
// epoch boundary.
//
// Record types, JSON-encoded per journal frame:
//
//	accepted  {id, key, spec}   job admitted (written before the enqueue)
//	started   {id}              a worker began executing
//	phase     {id, phase}       pipeline phase transition (train|compose)
//	done      {id, result}      terminal: success
//	failed    {id, error}       terminal: error
//	cancelled {id, error}       terminal: cancel or deadline
//
// On boot the journal is folded into a snapshot (SnapshotAndCompact), so
// replay cost stays proportional to the live job table, not history.

// SchedulerOptions configures NewSchedulerWithOptions. The three
// directories are required: the scheduler has one configuration, the
// durable one.
type SchedulerOptions struct {
	QueueDepth int // <= 0 selects 64
	Workers    int // <= 0 selects GOMAXPROCS

	// JournalDir holds the write-ahead job journal: transitions are
	// appended there (accepted and terminal ones fsynced) and replayed on
	// construction. One scheduler at a time may hold it.
	JournalDir string

	// CheckpointDir holds durable training checkpoints keyed by each
	// job's model content address. Every epoch boundary is offered to
	// the cost throttle of core.TrainCheckpointer.AsyncSaver.
	CheckpointDir string

	// DatasetDir holds the columnar dataset cache: small-scale datagen
	// output is persisted there keyed by each job's DatasetKey, and later
	// jobs that share the key (same datagen knobs, any model
	// hyper-parameters) replay the file instead of re-running the
	// small-scale simulation.
	DatasetDir string

	// runFn replaces the job executor before recovered jobs are
	// re-enqueued and workers start. Test seam; nil selects the real
	// pipeline.
	runFn func(ctx context.Context, j *Job)
}

// Journal record types.
const (
	recAccepted  = "accepted"
	recStarted   = "started"
	recPhase     = "phase"
	recDone      = "done"
	recFailed    = "failed"
	recCancelled = "cancelled"
)

// jobRecord is one journal frame.
type jobRecord struct {
	Type   string    `json:"type"`
	ID     string    `json:"id"`
	Key    string    `json:"key,omitempty"`
	Spec   *JobSpec  `json:"spec,omitempty"`
	Phase  string    `json:"phase,omitempty"`
	Error  string    `json:"error,omitempty"`
	Result *Summary  `json:"result,omitempty"`
	Time   time.Time `json:"time"`
}

// journalSnapshot is the compacted journal state: the whole job table at
// one sequence point. Records appended later apply on top during replay.
type journalSnapshot struct {
	NextID uint64        `json:"next_id"`
	Jobs   []snapshotJob `json:"jobs"` // submission order
}

type snapshotJob struct {
	ID        string     `json:"id"`
	Key       string     `json:"key"`
	Spec      JobSpec    `json:"spec"`
	State     State      `json:"state"`
	Phase     string     `json:"phase,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *Summary   `json:"result,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// RecoveryReport summarizes what a journal replay reconstructed; the
// daemon logs it at boot.
type RecoveryReport struct {
	Replayed  int `json:"replayed"`  // journal records applied
	Torn      int `json:"torn"`      // clipped torn tails / seq gaps
	Jobs      int `json:"jobs"`      // jobs known after recovery
	Requeued  int `json:"requeued"`  // unfinished jobs re-enqueued
	Completed int `json:"completed"` // terminal jobs restored for GETs, those failed at recovery included
}

func (r RecoveryReport) String() string {
	return fmt.Sprintf("replayed %d records (%d torn): %d jobs, %d requeued, %d terminal",
		r.Replayed, r.Torn, r.Jobs, r.Requeued, r.Completed)
}

// NewSchedulerWithOptions builds a scheduler, replaying the job journal
// first: terminal jobs are restored so GET /v1/jobs/{id} survives
// restarts, and unfinished jobs go back on the queue (grown past
// QueueDepth if the backlog demands it) before any new submission is
// accepted, unless their spec no longer validates: those fail at once
// with the Validate error. It fails while another scheduler holds
// opt.JournalDir.
func NewSchedulerWithOptions(reg *Registry, opt SchedulerOptions) (*Scheduler, *RecoveryReport, error) {
	for _, d := range []struct{ field, dir string }{
		{"JournalDir", opt.JournalDir},
		{"CheckpointDir", opt.CheckpointDir},
		{"DatasetDir", opt.DatasetDir},
	} {
		if d.dir == "" {
			return nil, nil, fmt.Errorf("serve: SchedulerOptions.%s is required", d.field)
		}
	}
	queueDepth := opt.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 64
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		reg:           reg,
		workers:       workers,
		jobs:          make(map[string]*Job),
		hPhaseTrain:   obs.NewHistogram(obs.TimeBuckets()),
		hPhaseCompose: obs.NewHistogram(obs.TimeBuckets()),
		ckptDir:       opt.CheckpointDir,
		dsDir:         opt.DatasetDir,
	}
	s.runFn = s.runJob
	if opt.runFn != nil {
		s.runFn = opt.runFn
	}

	// Append never fsyncs on its own: logRecord chooses, per record,
	// between Append and AppendSync.
	jnl, info, err := durable.OpenJournal(opt.JournalDir, durable.JournalOptions{SyncEvery: math.MaxInt})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job journal: %w", err)
	}
	s.journal = jnl
	rep := &RecoveryReport{}
	pending := s.replay(info, rep)
	s.queue = make(chan *Job, max(queueDepth, len(pending)))
	for _, j := range pending {
		s.queue <- j
		s.cRequeued.Inc()
	}
	// Fold history into a snapshot so the next boot replays the job
	// table, not every transition since the beginning of time.
	if err := s.Compact(); err != nil {
		s.cJournalErrs.Inc()
	}

	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s, rep, nil
}

// replay folds the snapshot and the surviving records into the job
// table (s.jobs/s.order/s.nextID) and returns the jobs to re-enqueue.
// An unfinished job whose spec fails JobSpec.Validate is not among them:
// it is failed with that error and its terminal record journaled, so it
// fails once, not on every boot. Runs before any worker starts, so no
// locking is needed.
func (s *Scheduler) replay(info *durable.RecoveryInfo, rep *RecoveryReport) []*Job {
	states := make(map[string]*snapshotJob)
	var order []string
	if len(info.Snapshot) > 0 {
		var snap journalSnapshot
		if err := json.Unmarshal(info.Snapshot, &snap); err == nil {
			s.nextID = snap.NextID
			for i := range snap.Jobs {
				sj := snap.Jobs[i]
				states[sj.ID] = &sj
				order = append(order, sj.ID)
			}
		}
	}
	rep.Torn = info.Torn
	for _, r := range info.Records {
		var rec jobRecord
		if err := json.Unmarshal(r.Payload, &rec); err != nil {
			continue // foreign or versioned-away record: skip, don't fail
		}
		rep.Replayed++
		sj := states[rec.ID]
		switch rec.Type {
		case recAccepted:
			if sj != nil || rec.Spec == nil {
				continue
			}
			states[rec.ID] = &snapshotJob{
				ID: rec.ID, Key: rec.Key, Spec: *rec.Spec,
				State: StateQueued, Submitted: rec.Time,
			}
			order = append(order, rec.ID)
		case recStarted:
			if sj == nil {
				continue
			}
			sj.State = StateRunning
			t := rec.Time
			sj.Started = &t
		case recPhase:
			if sj == nil {
				continue
			}
			sj.Phase = rec.Phase
		case recDone, recFailed, recCancelled:
			if sj == nil {
				continue
			}
			switch rec.Type {
			case recDone:
				sj.State = StateDone
			case recFailed:
				sj.State = StateFailed
			case recCancelled:
				sj.State = StateCancelled
			}
			sj.Error = rec.Error
			sj.Result = rec.Result
			t := rec.Time
			sj.Finished = &t
		}
	}

	var pending []*Job
	for _, id := range order {
		sj := states[id]
		terminal := sj.State == StateDone || sj.State == StateFailed || sj.State == StateCancelled
		if !terminal {
			if err := sj.Spec.Validate(); err != nil {
				t := time.Now()
				sj.State, sj.Error, sj.Finished = StateFailed, err.Error(), &t
				s.logRecord(jobRecord{Type: recFailed, ID: id, Error: sj.Error, Time: t})
				s.cFailed.Inc()
				terminal = true
			}
		}
		j := rebuildJob(sj)
		s.jobs[id] = j
		s.order = append(s.order, id)
		if n := idNum(id); n > s.nextID {
			s.nextID = n
		}
		if terminal {
			rep.Completed++
		} else {
			pending = append(pending, j)
		}
	}
	rep.Jobs = len(order)
	rep.Requeued = len(pending)
	return pending
}

// rebuildJob reconstructs a Job from its journaled state. Terminal jobs
// come back queryable but inert (done closed, context cancelled);
// unfinished jobs come back ready to execute.
func rebuildJob(sj *snapshotJob) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id: sj.ID, key: sj.Key, spec: sj.Spec,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		submitted: sj.Submitted,
	}
	j.progress.Phase = sj.Phase
	switch sj.State {
	case StateDone, StateFailed, StateCancelled:
		j.state = sj.State
		j.result = sj.Result
		j.errMsg = sj.Error
		if sj.Started != nil {
			j.started = *sj.Started
		}
		if sj.Finished != nil {
			j.finished = *sj.Finished
		}
		cancel()
		close(j.done)
	default:
		// Interrupted mid-flight (queued or running at crash time): back
		// to the queue. The registry and the training checkpointer make
		// the re-execution idempotent-or-resumed rather than redone.
		j.state = StateQueued
	}
	return j
}

// idNum extracts the numeric part of a "j%06d" job ID (0 if foreign).
func idNum(id string) uint64 {
	var n uint64
	_, _ = fmt.Sscanf(id, "j%d", &n)
	return n
}

// logRecord appends one record; silently dropped after Kill or Close
// (the crash being simulated, or shutdown). Append failures are counted,
// not fatal: the daemon keeps serving, recovery just loses the affected
// transition.
//
// Only the records recovery acts on are fsynced. accepted is synced
// before Submit returns (and so before the 202), so an admitted job is
// never forgotten; a terminal record is synced before Done closes, so a
// job a client saw end is never run again. started and phase records
// only set Started and Phase for display — replay re-enqueues every job
// without a terminal record, whatever they say — so they are appended
// without an fsync and reach the disk, in order, with the next synced
// record.
func (s *Scheduler) logRecord(rec jobRecord) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.jClosed {
		return
	}
	blob, err := json.Marshal(rec)
	if err == nil {
		if rec.Type == recStarted || rec.Type == recPhase {
			_, err = s.journal.Append(blob)
		} else {
			_, err = s.journal.AppendSync(blob)
		}
	}
	if err != nil {
		s.cJournalErrs.Inc()
	}
}

// logFinish journals a job's terminal record.
func (s *Scheduler) logFinish(id string, out *outcome) {
	rec := jobRecord{ID: id, Error: out.errMsg, Result: out.result, Time: time.Now()}
	switch out.state {
	case StateDone:
		rec.Type = recDone
	case StateFailed:
		rec.Type = recFailed
	case StateCancelled:
		rec.Type = recCancelled
	default:
		return
	}
	s.logRecord(rec)
}

// snapshotState projects the whole job table for compaction.
func (s *Scheduler) snapshotState() journalSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := journalSnapshot{NextID: s.nextID}
	for _, id := range s.order {
		st := s.jobs[id].Status()
		snap.Jobs = append(snap.Jobs, snapshotJob{
			ID: st.ID, Key: st.ModelKey, Spec: st.Spec, State: st.State,
			Phase: st.Progress.Phase, Error: st.Error, Result: st.Result,
			Submitted: st.Submitted, Started: st.Started, Finished: st.Finished,
		})
	}
	return snap
}

// Compact folds the job table into a journal snapshot and truncates the
// record segments. Called on boot after recovery; safe any time.
func (s *Scheduler) Compact() error {
	blob, err := json.Marshal(s.snapshotState())
	if err != nil {
		return err
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.jClosed {
		return nil
	}
	return s.journal.SnapshotAndCompact(blob)
}

// Kill simulates a crash for recovery drills (tests and -smoke): all
// further journal writes are suppressed — as if the process died before
// making them — the journal file and its lock are released, as process
// death releases them, so a successor scheduler can open the same
// directory, and every job context is cancelled so workers wind down.
// The in-memory Scheduler stays queryable but is dead for durability
// purposes; rebuild from the same directories to recover.
func (s *Scheduler) Kill() {
	s.jmu.Lock()
	if !s.jClosed {
		s.jClosed = true
		_ = s.journal.Close()
	}
	s.jmu.Unlock()

	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
}

// Close compacts and releases the journal after an orderly drain. The
// scheduler must not be used for new work afterwards.
func (s *Scheduler) Close() error {
	_ = s.Compact() // best effort: next boot replays a snapshot, not history
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.jClosed {
		return nil
	}
	s.jClosed = true
	return s.journal.Close()
}
