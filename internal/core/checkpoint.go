package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mimicnet/internal/durable"
	"mimicnet/internal/ml"
)

// TrainCheckpointer persists per-direction training checkpoints on disk,
// keyed by the job's model content address, so a killed training run can
// resume from its last epoch boundary instead of restarting. One file
// per direction: <Dir>/<Key>.<direction>.ckpt, each a durable checkpoint
// container (magic + CRC) holding the JSON-encoded ml.TrainCheckpoint.
//
// The checkpointer is deliberately forgiving on the read side: a
// missing, torn, or stale (config/sample-count mismatch) checkpoint
// degrades to training from scratch — durability must never make a job
// unrunnable. The write side is strict: a failed save aborts training,
// because a caller that asked for checkpoints is relying on them.
type TrainCheckpointer struct {
	// Dir is the checkpoint directory (created on first save).
	Dir string
	// Key scopes the files, typically TrainSpec's ModelKey hex digest.
	Key string
}

// Path returns the checkpoint file for one direction.
func (c *TrainCheckpointer) Path(dir Direction) string {
	return filepath.Join(c.Dir, fmt.Sprintf("%s.%v.ckpt", c.Key, dir))
}

// Load reads the direction's checkpoint. Absent or corrupt files return
// (nil, nil): the caller simply trains from scratch.
func (c *TrainCheckpointer) Load(dir Direction) (*ml.TrainCheckpoint, error) {
	payload, err := durable.ReadCheckpoint(c.Path(dir))
	switch {
	case errors.Is(err, os.ErrNotExist), errors.Is(err, durable.ErrCorrupt):
		return nil, nil
	case err != nil:
		return nil, err
	}
	var ck ml.TrainCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		// CRC-valid container with undecodable contents: written by an
		// incompatible version. Start over.
		return nil, nil
	}
	return &ck, nil
}

// Save writes one direction's checkpoint durably (atomic rename +
// fsync via the shared durable helper).
func (c *TrainCheckpointer) Save(dir Direction, ck *ml.TrainCheckpoint) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return err
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return durable.WriteCheckpoint(c.Path(dir), payload)
}

// Clear removes both directions' checkpoints — called once the finished
// artifact has been durably stored, after which the cursors are dead
// weight. Removal failures are ignored: a leftover checkpoint is only
// ever re-read by an identical job, which will find it Complete and
// restore instantly.
func (c *TrainCheckpointer) Clear() {
	for _, d := range []Direction{Ingress, Egress} {
		_ = os.Remove(c.Path(d))
	}
}

// saveOverheadFactor bounds steady-state checkpoint cost: a cursor is
// persisted only once ~saveOverheadFactor× the previous save's wall
// time has elapsed in training compute, capping the amortized overhead
// near 1/saveOverheadFactor = 1% regardless of model size. Big models
// (epoch ≫ save) persist every epoch; thumbnail models self-throttle.
const saveOverheadFactor = 100

// AsyncSaver returns a TrainOpts.SaveCheckpoint callback that persists
// cursors in the background with a single in-flight write, plus a wait
// function that blocks until the last write has landed and surfaces its
// error. Checkpoints are deep copies (ml.captureCheckpoint), so a write
// overlaps the next epoch's compute; on top of that, saves self-throttle
// by measured cost (saveOverheadFactor) so checkpointing never consumes
// more than ~1% of training wall-clock. The final Complete cursor is
// always persisted — a finished direction must restore instantly. A
// crash mid-write is safe: WriteCheckpoint is atomic, so recovery sees
// either the previous cursor or the new one, never a torn mix.
func (c *TrainCheckpointer) AsyncSaver(dir Direction) (save func(*ml.TrainCheckpoint) error, wait func() error) {
	var (
		pending  chan error
		lastDone time.Time     // completion of the newest persisted save
		lastCost time.Duration // its wall-clock cost
	)
	save = func(ck *ml.TrainCheckpoint) error {
		if pending != nil {
			// One write in flight at a time; by the time the next epoch
			// finishes, the previous save has almost always landed. The
			// receive also orders the goroutine's lastDone/lastCost
			// writes before our reads below.
			if err := <-pending; err != nil {
				return err
			}
			pending = nil
		}
		if !ck.Complete() && !lastDone.IsZero() &&
			time.Since(lastDone) < lastCost*saveOverheadFactor {
			return nil // throttled: this epoch boundary goes unpersisted
		}
		pending = make(chan error, 1)
		t0 := time.Now()
		go func() {
			err := c.Save(dir, ck)
			lastCost = time.Since(t0)
			lastDone = time.Now()
			pending <- err
		}()
		return nil
	}
	wait = func() error {
		if pending == nil {
			return nil
		}
		err := <-pending
		pending = nil
		return err
	}
	return save, wait
}

// resumable reports whether ck can seed a resume of a run with the given
// model config over n training samples. Mismatches mean the checkpoint
// belongs to a different dataset or hyper-parameter revision.
func resumable(ck *ml.TrainCheckpoint, cfg ml.ModelConfig, n int) bool {
	return ck != nil && ck.Cfg == cfg && ck.Samples == n
}
