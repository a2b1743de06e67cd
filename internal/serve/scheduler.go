package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mimicnet/internal/core"
	"mimicnet/internal/durable"
	"mimicnet/internal/ml"
	"mimicnet/internal/obs"
	"mimicnet/internal/sim"
)

// Admission errors. The HTTP layer maps errQueueFull to 429 +
// Retry-After and errDraining to 503.
var (
	errQueueFull = errors.New("serve: job queue is full")
	errDraining  = errors.New("serve: daemon is draining, not accepting jobs")
	errNotFound  = errors.New("serve: no such job")
)

// State is a job's lifecycle position.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Progress is the streaming view of a running job, updated from the
// simulation run loop and read by polling GETs.
type Progress struct {
	Phase        string  `json:"phase,omitempty"` // train | compose
	SimTimeS     float64 `json:"sim_time_s"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Train is the most recent per-epoch training report (the two
	// directions train concurrently; whichever reported last wins). It is
	// set during the train phase and retained through compose so clients
	// can still see how training went after the phase moves on. Nil for
	// registry hits — no training happened.
	Train *TrainProgress `json:"train,omitempty"`
}

// TrainProgress mirrors ml.TrainProgress plus the direction tag, in the
// daemon's JSON vocabulary.
type TrainProgress struct {
	Direction     string  `json:"direction"` // ingress | egress
	Epoch         int     `json:"epoch"`
	Epochs        int     `json:"epochs"`
	Loss          float64 `json:"loss"`
	Samples       int     `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	BatchSize     int     `json:"batch_size"`
}

// Job is one scheduled estimation request.
type Job struct {
	id  string
	key string // content address of the trained artifact

	spec   JobSpec
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     State
	progress  Progress
	result    *Summary
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	staged    *outcome // set by finish, published by Scheduler.complete
}

// outcome is a job's terminal state, staged by finish until the
// scheduler has journaled and counted it.
type outcome struct {
	state    State
	result   *Summary
	errMsg   string
	finished time.Time
}

// JobStatus is the JSON projection of a Job.
type JobStatus struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	ModelKey  string     `json:"model_key"`
	Spec      JobSpec    `json:"spec"`
	Progress  Progress   `json:"progress"`
	Result    *Summary   `json:"result,omitempty"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative cancellation (queued jobs skip execution;
// running jobs stop at the next cancellation check and keep partial
// results).
func (j *Job) Cancel() { j.cancel() }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		ModelKey:  j.key,
		Spec:      j.spec,
		Progress:  j.progress,
		Result:    j.result,
		Error:     j.errMsg,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// enterPhase moves a running job into a pipeline phase and journals
// the transition.
func (s *Scheduler) enterPhase(j *Job, phase string) {
	j.mu.Lock()
	j.progress.Phase = phase
	j.mu.Unlock()
	s.logRecord(jobRecord{Type: recPhase, ID: j.id, Phase: phase, Time: time.Now()})
}

func (j *Job) setProgress(p Progress) {
	j.mu.Lock()
	p.Train = j.progress.Train // training reports outlive the train phase
	j.progress = p
	j.mu.Unlock()
}

func (j *Job) setTrainProgress(tp TrainProgress) {
	j.mu.Lock()
	j.progress.Train = &tp
	j.mu.Unlock()
}

// finish stages the job's terminal outcome. The job keeps its current
// state, and Done stays open, until Scheduler.complete publishes it.
func (j *Job) finish(state State, result *Summary, errMsg string) {
	j.mu.Lock()
	j.staged = &outcome{state: state, result: result, errMsg: errMsg, finished: time.Now()}
	j.mu.Unlock()
}

// Scheduler is the admission-controlled worker pool that executes jobs:
// a bounded queue (overflow is rejected at submission, never silently
// dropped) feeding GOMAXPROCS-sized workers that run the train→tune→
// compose pipeline with per-job cancellation and deadlines.
type Scheduler struct {
	reg *Registry

	queue   chan *Job
	workers int

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	draining bool
	nextID   uint64
	avgSec   float64 // EWMA of job wall-clock, for Retry-After estimates

	// Telemetry cells. Per-instance atomics read by both Stats() and —
	// once ExposeTo binds them — the obs registry behind GET /metrics,
	// so the two views can never disagree.
	cSubmitted      obs.Counter
	cRejectFull     obs.Counter
	cRejectDraining obs.Counter
	cDone           obs.Counter
	cFailed         obs.Counter
	cCancelled      obs.Counter
	cRequeued       obs.Counter
	cJournalErrs    obs.Counter
	cDatasetHits    obs.Counter
	cDatasetMisses  obs.Counter
	cDatasetCorrupt obs.Counter
	gRunning        obs.Gauge
	hPhaseTrain     *obs.Histogram
	hPhaseCompose   *obs.Histogram

	// Durability (journal.go). jmu orders appends against Kill/Close;
	// jClosed suppresses writes once the journal is gone. ckptDir holds
	// per-job training checkpoints, dsDir the columnar dataset cache.
	journal *durable.Journal
	jmu     sync.Mutex
	jClosed bool
	ckptDir string
	dsDir   string

	wg sync.WaitGroup

	// runFn executes one admitted job and must drive it to a terminal
	// state. Tests substitute a stub; production uses (*Scheduler).runJob.
	runFn func(ctx context.Context, j *Job)
}

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return s.workers }

// QueueDepth returns (queued, capacity).
func (s *Scheduler) QueueDepth() (int, int) { return len(s.queue), cap(s.queue) }

// Submit validates, keys, and enqueues a job. It fails fast with
// errQueueFull when the bounded queue is at capacity and errDraining
// once a drain has begun.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key, err := spec.ModelKey()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		key:       key,
		spec:      spec,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.cRejectDraining.Inc()
		return nil, errDraining
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		cancel()
		s.cRejectFull.Inc()
		return nil, errQueueFull
	}
	s.nextID++
	j.id = fmt.Sprintf("j%06d", s.nextID)
	// Write-ahead: the accepted record is fsynced before the job becomes
	// visible to workers, so an admitted job can never be forgotten.
	// Capacity was checked above under s.mu (only Submit adds to the
	// queue), so this send cannot block.
	s.logRecord(jobRecord{Type: recAccepted, ID: j.id, Key: key, Spec: &spec, Time: j.submitted})
	s.queue <- j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.cSubmitted.Inc()
	return j, nil
}

// Job looks up a job by ID.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, errNotFound
	}
	return j, nil
}

// Jobs lists all known jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Draining reports whether a drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission immediately (subsequent Submits fail with
// errDraining), lets queued and running jobs finish, and returns when the
// pool is idle or ctx expires (workers keep finishing in the background
// on timeout). Safe to call more than once.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryAfter estimates, in whole seconds, how long a rejected client
// should wait for queue headroom: the observed average job duration
// scaled by queue occupancy per worker. Clamped to [1, 300].
func (s *Scheduler) RetryAfter() int {
	s.mu.Lock()
	avg := s.avgSec
	s.mu.Unlock()
	if avg <= 0 {
		avg = 5 // no history yet; a training run is seconds at minimum
	}
	queued, _ := s.QueueDepth()
	sec := int(avg*float64(queued+1)/float64(s.workers)) + 1
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return sec
}

// SchedulerStats is the /stats projection of the pool.
type SchedulerStats struct {
	Workers       int    `json:"workers"`
	Queued        int    `json:"queued"`
	QueueCapacity int    `json:"queue_capacity"`
	Running       int    `json:"running"`
	Done          uint64 `json:"done"`
	Failed        uint64 `json:"failed"`
	Cancelled     uint64 `json:"cancelled"`
	Draining      bool   `json:"draining"`
	RetryAfterSec int    `json:"retry_after_sec"`
}

// Stats snapshots the pool counters.
func (s *Scheduler) Stats() SchedulerStats {
	queued, capacity := s.QueueDepth()
	st := SchedulerStats{
		Workers:       s.workers,
		Queued:        queued,
		QueueCapacity: capacity,
		RetryAfterSec: s.RetryAfter(),
	}
	st.Done = s.cDone.Value()
	st.Failed = s.cFailed.Value()
	st.Cancelled = s.cCancelled.Value()
	s.mu.Lock()
	st.Draining = s.draining
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			st.Running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	return st
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

func (s *Scheduler) execute(j *Job) {
	if j.ctx.Err() != nil {
		j.finish(StateCancelled, nil, "cancelled while queued")
		s.complete(j)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.logRecord(jobRecord{Type: recStarted, ID: j.id, Time: time.Now()})
	s.gRunning.Add(1)
	defer s.gRunning.Add(-1)

	ctx := j.ctx
	if j.spec.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.spec.DeadlineMs*float64(time.Millisecond)))
		defer cancel()
	}
	s.runFn(ctx, j)
	s.complete(j)
}

// complete publishes the outcome finish staged, write-ahead: the
// terminal record is journaled and the job counted before its state
// changes and Done closes. A client that saw the job end therefore finds
// it counted in /stats, and a daemon recovered after a crash finds its
// terminal record instead of running it again.
func (s *Scheduler) complete(j *Job) {
	j.mu.Lock()
	out, started := j.staged, j.started
	j.mu.Unlock()
	if out == nil {
		return
	}
	s.logFinish(j.id, out)
	var dur time.Duration
	if !started.IsZero() {
		dur = out.finished.Sub(started)
	}
	s.account(out.state, dur)
	j.mu.Lock()
	j.state, j.result, j.errMsg, j.finished = out.state, out.result, out.errMsg, out.finished
	j.mu.Unlock()
	close(j.done)
}

func (s *Scheduler) account(state State, dur time.Duration) {
	switch state {
	case StateDone:
		s.cDone.Inc()
	case StateFailed:
		s.cFailed.Inc()
	case StateCancelled:
		s.cCancelled.Inc()
	}
	s.mu.Lock()
	if dur > 0 {
		if s.avgSec == 0 {
			s.avgSec = dur.Seconds()
		} else {
			s.avgSec = 0.7*s.avgSec + 0.3*dur.Seconds()
		}
	}
	s.mu.Unlock()
}

// runJob executes the full pipeline for one job: obtain models through
// the registry (training at most once across concurrent identical jobs),
// then compose and run the large-scale estimate with cancellation and
// progress plumbed into the kernel's run loop.
func (s *Scheduler) runJob(ctx context.Context, j *Job) {
	s.enterPhase(j, "train")
	ckpt := &core.TrainCheckpointer{Dir: s.ckptDir, Key: j.key}
	t0 := time.Now()
	models, hit, err := s.reg.Get(ctx, j.key, func() (*core.MimicModels, error) {
		ing, eg, err := s.datasetsForSpec(ctx, j.spec)
		if err != nil {
			return nil, err
		}
		models, _, err := j.spec.Train(ctx, ing, eg, func(dir core.Direction, p ml.TrainProgress) {
			j.setTrainProgress(TrainProgress{
				Direction:     dir.String(),
				Epoch:         p.Epoch,
				Epochs:        p.Epochs,
				Loss:          p.Loss,
				Samples:       p.Samples,
				SamplesPerSec: p.SamplesPerSec,
				BatchSize:     p.BatchSize,
			})
		}, ckpt)
		return models, err
	})
	if err == nil {
		// The artifact is durably in the registry; the training cursors
		// are dead weight now.
		ckpt.Clear()
	}
	trainDur := time.Since(t0)
	s.hPhaseTrain.Observe(trainDur.Seconds())
	if err != nil {
		if ctx.Err() != nil {
			j.finish(StateCancelled, nil, ctx.Err().Error())
		} else {
			j.finish(StateFailed, nil, err.Error())
		}
		return
	}

	s.enterPhase(j, "compose")
	t1 := time.Now()
	sum, err := j.spec.Estimate(ctx, models, func(now sim.Time, events uint64) {
		p := Progress{Phase: "compose", SimTimeS: now.Seconds(), Events: events}
		if wall := time.Since(t1).Seconds(); wall > 0 {
			p.EventsPerSec = float64(events) / wall
		}
		j.setProgress(p)
	})
	if err != nil {
		j.finish(StateFailed, nil, err.Error())
		return
	}
	s.hPhaseCompose.Observe(sum.ComposeMs / 1e3)
	sum.TrainMs, sum.CacheHit = float64(trainDur)/float64(time.Millisecond), hit
	if sum.Cancelled {
		j.finish(StateCancelled, sum, "cancelled mid-run; results are partial")
		return
	}
	j.finish(StateDone, sum, "")
}

// datasetsForSpec produces the two per-direction datasets (spec.Datasets),
// preferring the persisted columnar cache. A corrupt cache entry is
// removed and regenerated — the file is a pure cache, never the source
// of truth. Cache write failures are likewise non-fatal: the freshly
// generated datasets train this job either way.
func (s *Scheduler) datasetsForSpec(ctx context.Context, spec JobSpec) (ing, eg *core.Dataset, err error) {
	key, err := spec.DatasetKey()
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(s.dsDir, key+".dset")
	ing, eg, rerr := core.ReadDatasetFile(path)
	if rerr == nil {
		s.cDatasetHits.Inc()
		return ing, eg, nil
	}
	if errors.Is(rerr, durable.ErrCorrupt) {
		s.cDatasetCorrupt.Inc()
		os.Remove(path)
	}
	s.cDatasetMisses.Inc()
	ing, eg, err = spec.Datasets(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(s.dsDir, 0o755); err == nil {
		core.WriteDatasetFile(path, ing, eg)
	}
	return ing, eg, nil
}
