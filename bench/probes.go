package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/durable"
	"mimicnet/internal/ml"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
)

// Probes time one public function of one layer in isolation. A traced
// run of any workload runs all of them: they are the per-layer numbers
// that do not depend on the workload, and an end-to-end change is read
// against them.

const (
	probeKernelEvents = 1_000_000
	probeWindows      = 20_000
	probeInferRounds  = 4_000
	probeInferLanes   = 16
	probeAppends      = 64
	probeBlobBytes    = 256 << 10 // about one trained default artifact
)

// bestOf returns the quickest of n timings of fn, in seconds: a probe
// wants the cost of the code, not of whatever else the host was doing.
func bestOf(n int, fn func()) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func (r *run) probes() error {
	r.probeSim()
	r.probeInfer()
	if err := r.probeDurable(); err != nil {
		return err
	}
	return r.probeRegistry()
}

// probeSim measures the event kernel alone: a chain of self-rescheduling
// closure events, and the window barrier of the parallel kernel over
// logical processes that have nothing to do.
func (r *run) probeSim() {
	events, windows := probeKernelEvents/r.size.probeShrink, probeWindows/r.size.probeShrink
	var mallocs uint64
	sec := bestOf(3, func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := sim.New()
		left := events
		var tick func()
		tick = func() {
			if left--; left > 0 {
				s.After(sim.Microsecond, tick)
			}
		}
		// 64 interleaved chains keep the heap non-trivial.
		for i := 0; i < 64; i++ {
			s.After(sim.Time(i), tick)
		}
		s.Run()
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	r.set("sim.kernel_events_per_s", float64(events)/sec)
	r.set("sim.kernel_allocs_per_event", float64(mallocs)/float64(events))

	sec = bestOf(3, func() {
		p := sim.NewParallel(r.ncpu, sim.Microsecond)
		p.Run(sim.Time(windows) * sim.Microsecond)
	})
	r.set("sim.pdes_barrier_ns_per_window", sec*1e9/float64(windows))
}

// probeInfer measures one fused inference step per lane on a model of
// the default artifact's shape (the weights do not change the cost).
func (r *run) probeInfer() {
	features := core.NewFeatureSpec(cluster.DefaultConfig(2).Topo).Width()
	model, err := ml.NewModel(ml.DefaultModelConfig(features, core.DefaultDatasetConfig().Window))
	if err != nil {
		panic(err) // the default configuration is valid by construction
	}
	bank := ml.NewBatchedStatefulModel(model, probeInferLanes, nil)
	lanes := make([]int, probeInferLanes)
	xs := make([][]float64, probeInferLanes)
	for i := range lanes {
		lanes[i] = i
		xs[i] = make([]float64, features)
		xs[i][i%features] = 1
	}
	out := make([]ml.Prediction, probeInferLanes)
	rounds := probeInferRounds / r.size.probeShrink
	sec := bestOf(3, func() {
		for i := 0; i < rounds; i++ {
			bank.StepLanes(lanes, xs, nil, out)
		}
	})
	r.set("ml.infer_ns_per_step", sec*1e9/float64(rounds*probeInferLanes))
}

// probeDurable measures the journal and the container format on the
// benchmark's own disk.
func (r *run) probeDurable() error {
	dir, err := os.MkdirTemp(r.scratch, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	record := bytes.Repeat([]byte("j"), 256) // about one job record

	appendAll := func(sub string, opt durable.JournalOptions, sync bool) (float64, error) {
		j, _, err := durable.OpenJournal(filepath.Join(dir, sub), opt)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < probeAppends; i++ {
			if sync {
				_, err = j.AppendSync(record)
			} else {
				_, err = j.Append(record)
			}
			if err != nil {
				j.Close()
				return 0, err
			}
		}
		sec := time.Since(t0).Seconds()
		return sec / probeAppends, j.Close()
	}
	perSync, err := appendAll("sync", durable.JournalOptions{}, true)
	if err != nil {
		return err
	}
	perBatched, err := appendAll("batch", durable.JournalOptions{SyncEvery: 64}, false)
	if err != nil {
		return err
	}
	r.set("durable.append_sync_ms", perSync*1e3)
	r.set("durable.append_batch_us", perBatched*1e6)

	t0 := time.Now()
	j, info, err := durable.OpenJournal(filepath.Join(dir, "sync"), durable.JournalOptions{})
	if err != nil {
		return err
	}
	replay := time.Since(t0).Seconds()
	if err := j.Close(); err != nil {
		return err
	}
	if len(info.Records) != probeAppends {
		r.fail("durable probe: replayed %d of %d records", len(info.Records), probeAppends)
	}
	r.set("durable.replay_ms", replay*1e3)

	blob := bytes.Repeat([]byte{0xA5}, probeBlobBytes)
	path := filepath.Join(dir, "blob.bin")
	var werr, rerr error
	var back []byte
	write := bestOf(3, func() { werr = durable.WriteContainer(path, "MNBENCH1", blob) })
	read := bestOf(3, func() { back, rerr = durable.ReadContainer(path, "MNBENCH1") })
	if werr != nil {
		return werr
	}
	if rerr != nil {
		return rerr
	}
	if !bytes.Equal(back, blob) {
		r.fail("durable probe: container read back differs")
	}
	r.set("durable.container_write_ms", write*1e3)
	r.set("durable.container_read_ms", read*1e3)
	return nil
}

// probeRegistry measures a model lookup that finds the artifact in
// memory and one that has to decode it from disk. The artifact is a
// thumbnail trained here; the lookups never train.
func (r *run) probeRegistry() error {
	dir, err := os.MkdirTemp(r.scratch, "registry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, models, err := trainSpec(&opRec{r: r}, thumbnail(subSeed(r.seed, 0), 2), thumbNominal)
	if err != nil {
		return err
	}
	ctx := context.Background()
	never := func() (*core.MimicModels, error) { return nil, errors.New("registry probe: lookup had to train") }
	reg, err := serve.NewRegistry(dir, 0)
	if err != nil {
		return err
	}
	if _, _, err := reg.Get(ctx, "probe", func() (*core.MimicModels, error) { return models, nil }); err != nil {
		return err
	}
	const gets = 1000
	mem := bestOf(3, func() {
		for i := 0; i < gets; i++ {
			_, _, err = reg.Get(ctx, "probe", never)
		}
	})
	if err != nil {
		return err
	}
	disk := bestOf(3, func() {
		var fresh *serve.Registry
		if fresh, err = serve.NewRegistry(dir, 0); err == nil {
			_, _, err = fresh.Get(ctx, "probe", never)
		}
	})
	if err != nil {
		return err
	}
	r.set("serve.registry_get_mem_us", mem*1e6/gets)
	r.set("serve.registry_get_disk_ms", disk*1e3)
	return nil
}
