package experiments

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/sim"
)

// TestRunBoundedLimitsConcurrency requires runBounded to run exactly
// parallelism jobs at once: each job waits until that many are running,
// so a runner that allows fewer never gets there and one that allows
// more shows a higher peak.
func TestRunBoundedLimitsConcurrency(t *testing.T) {
	const jobs, limit = 12, 3
	var running, peak atomic.Int32
	reached := make(chan struct{})
	var once sync.Once
	fs := make([]func() error, jobs)
	for i := range fs {
		fs[i] = func() error {
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if n == limit {
				once.Do(func() { close(reached) })
			}
			select {
			case <-reached:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("never ran the limit of jobs at once")
			}
		}
	}
	wall, err := runBounded(fs, limit)
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != limit {
		t.Errorf("peak concurrency %d, want %d", got, limit)
	}
	if wall <= 0 {
		t.Errorf("wall time %v not recorded", wall)
	}
}

// TestRunBoundedJoinsErrors requires every job to run and every failure
// to come back.
func TestRunBoundedJoinsErrors(t *testing.T) {
	errA, errB := errors.New("a failed"), errors.New("b failed")
	var ran atomic.Int32
	fs := make([]func() error, 4)
	for i := range fs {
		fs[i] = func() error {
			ran.Add(1)
			switch i {
			case 1:
				return errA
			case 3:
				return errB
			}
			return nil
		}
	}
	_, err := runBounded(fs, 2)
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Errorf("error %v does not join both failures", err)
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("%d of 4 jobs ran", got)
	}
}

// TestGroupWallsValidation requires an invalid member to fail the group
// before any clock starts: both walls come back zero.
func TestGroupWallsValidation(t *testing.T) {
	base, _, err := NewRunner(tinySpec()).config("newreno", 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Protocol = nil
	full, mimic, err := groupWalls([]cluster.Config{base, bad}, nil, sim.Second, 2)
	if err == nil || !strings.Contains(err.Error(), "group member 1") {
		t.Fatalf("error %v, want one naming group member 1", err)
	}
	if full != 0 || mimic != 0 {
		t.Errorf("walls %v, %v: a run started before validation finished", full, mimic)
	}
}

// TestParallelConfigs pins the parallel mode's derivation: the base
// config n times, seeds base+1 … base+n, horizon untouched.
func TestParallelConfigs(t *testing.T) {
	base, _, err := NewRunner(tinySpec()).config("newreno", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := parallelConfigs(base, 3)
	if len(cfgs) != 3 {
		t.Fatalf("%d configs, want 3", len(cfgs))
	}
	for i, c := range cfgs {
		if want := base.Workload.Seed + int64(i) + 1; c.Workload.Seed != want {
			t.Errorf("config %d seed %d, want %d", i, c.Workload.Seed, want)
		}
		if c.Workload.Duration != base.Workload.Duration {
			t.Errorf("config %d duration %v, want the base's %v", i, c.Workload.Duration, base.Workload.Duration)
		}
	}
}

// TestPartitionedConfigs pins the partitioned mode's derivation: the
// parallel mode's seeds, a horizon split into n chunks, and each
// workload capped at its chunk, a shorter one left as it is.
func TestPartitionedConfigs(t *testing.T) {
	base, _, err := NewRunner(tinySpec()).config("newreno", 2)
	if err != nil {
		t.Fatal(err)
	}
	base.Workload.Duration = 80 * sim.Millisecond
	cfgs, chunk := partitionedConfigs(base, 4, 200*sim.Millisecond)
	if chunk != 50*sim.Millisecond {
		t.Errorf("chunk %v, want 50ms", chunk)
	}
	for i, c := range cfgs {
		if want := base.Workload.Seed + int64(i) + 1; c.Workload.Seed != want {
			t.Errorf("config %d seed %d, want %d", i, c.Workload.Seed, want)
		}
		if c.Workload.Duration != chunk {
			t.Errorf("config %d duration %v, want the chunk %v", i, c.Workload.Duration, chunk)
		}
	}
	cfgs, chunk = partitionedConfigs(base, 2, 400*sim.Millisecond)
	if chunk != 200*sim.Millisecond || cfgs[0].Workload.Duration != base.Workload.Duration {
		t.Errorf("chunk %v, duration %v: a workload shorter than its chunk was changed", chunk, cfgs[0].Workload.Duration)
	}
}
