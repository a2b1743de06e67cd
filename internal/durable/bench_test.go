package durable_test

import (
	"context"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mimicnet/internal/core"
	"mimicnet/internal/durable"
	"mimicnet/internal/ml"
	"mimicnet/internal/stats"
)

// BenchmarkDurability measures the cost side of the durability layer:
//
//   - journal append throughput with per-record fsync vs batched fsync;
//   - checkpoint container write + restore latency across payload sizes
//     (stand-ins for small/medium/large model states);
//   - cold recovery replay over a 10k-record journal;
//   - training wall-clock overhead of the production checkpoint path
//     (core.TrainCheckpointer.AsyncSaver at the default interval; the
//     acceptance bar is <= 2%).
//
// This lives in an external test package so it can drive the real
// core-side saver: core imports durable, so the in-package test would
// be an import cycle.
func BenchmarkDurability(b *testing.B) {
	b.Run("journal-append", func(b *testing.B) {
		payload := make([]byte, 256)
		for _, cfg := range []struct {
			name string
			sync int
		}{{"fsync_each", 1}, {"fsync_batch64", 64}} {
			b.Run(cfg.name, func(b *testing.B) {
				const records = 2000
				j, _, err := durable.OpenJournal(b.TempDir(), durable.JournalOptions{SyncEvery: cfg.sync})
				if err != nil {
					b.Fatal(err)
				}
				defer j.Close()
				t0 := time.Now()
				for i := 0; i < records; i++ {
					if _, err := j.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := j.Sync(); err != nil {
					b.Fatal(err)
				}
				perSec := float64(records) / time.Since(t0).Seconds()
				b.ReportMetric(perSec, "appends/sec")
			})
		}
	})

	b.Run("ckpt-io", func(b *testing.B) {
		rng := stats.NewStream(5)
		for _, sz := range []struct {
			name  string
			bytes int
		}{{"64KiB", 64 << 10}, {"1MiB", 1 << 20}, {"8MiB", 8 << 20}} {
			b.Run(sz.name, func(b *testing.B) {
				payload := make([]byte, sz.bytes)
				for i := range payload {
					payload[i] = byte(rng.Intn(256))
				}
				path := filepath.Join(b.TempDir(), "m.ckpt")
				const iters = 8
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					if err := durable.WriteCheckpoint(path, payload); err != nil {
						b.Fatal(err)
					}
				}
				writeMs := time.Since(t0).Seconds() * 1000 / iters
				t1 := time.Now()
				for i := 0; i < iters; i++ {
					if _, err := durable.ReadCheckpoint(path); err != nil {
						b.Fatal(err)
					}
				}
				restoreMs := time.Since(t1).Seconds() * 1000 / iters
				b.ReportMetric(writeMs, "write-ms")
				b.ReportMetric(restoreMs, "restore-ms")
			})
		}
	})

	b.Run("replay-10k", func(b *testing.B) {
		const records = 10_000
		dir := b.TempDir()
		j, _, err := durable.OpenJournal(dir, durable.JournalOptions{SyncEvery: 256})
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, 200)
		for i := 0; i < records; i++ {
			if _, err := j.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		j2, info, err := durable.OpenJournal(dir, durable.JournalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		replayMs := time.Since(t0).Seconds() * 1000
		j2.Close()
		if len(info.Records) != records {
			b.Fatalf("replayed %d records, want %d", len(info.Records), records)
		}
		b.ReportMetric(replayMs, "replay-ms")
	})

	b.Run("train-overhead", func(b *testing.B) {
		const (
			features = 23 // feature width of the default topology
			window   = 8
			nSamples = 384
		)
		cfg := ml.DefaultModelConfig(features, window)
		// Long enough that steady-state amortized cost dominates. The
		// checkpoint path has one irreducible per-run constant — the
		// final Complete cursor's durable write (~15ms: JSON marshal +
		// fsync) — plus a throttled per-epoch cost bounded by
		// 1/saveOverheadFactor. A run measured in seconds (like any
		// real training job) sees the sum of both; a millisecond-scale
		// run would measure only the constant.
		cfg.Epochs = 120
		samples := benchSamples(nSamples, features, window, 17)

		train := func(opts ml.TrainOpts, after func() error) time.Duration {
			m, err := ml.NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			if _, err := m.TrainContext(context.Background(), samples, opts); err != nil {
				b.Fatal(err)
			}
			if after != nil {
				if err := after(); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(t0)
		}
		train(ml.TrainOpts{}, nil) // warm the GEMM pool and page in the data

		// Interleave plain/checkpointed runs — back-to-back pairs see
		// the same machine weather — and take the median of the paired
		// differences: on a shared box the run-to-run variance is a few
		// percent, larger than the effect being measured, and a median
		// of paired deltas cancels it where best-of cannot. Alternating
		// the order within each pair cancels slow drift too.
		ckpt := &core.TrainCheckpointer{Dir: b.TempDir(), Key: "bench"}
		const pairs = 8
		var plains, diffs []float64
		for i := 0; i < pairs; i++ {
			runPlain := func() time.Duration { return train(ml.TrainOpts{}, nil) }
			runCkpt := func() time.Duration {
				save, wait := ckpt.AsyncSaver(core.Ingress)
				d := train(ml.TrainOpts{
					SaveCheckpoint: save,
				}, wait)
				ckpt.Clear()
				return d
			}
			var p, c time.Duration
			if i%2 == 0 {
				p = runPlain()
				c = runCkpt()
			} else {
				c = runCkpt()
				p = runPlain()
			}
			plains = append(plains, p.Seconds()*1000)
			diffs = append(diffs, (c-p).Seconds()*1000)
		}
		plainMs := median(plains)
		diffMs := median(diffs)
		overheadPct := diffMs / plainMs * 100
		b.ReportMetric(overheadPct, "overhead-%")
	})
}

// median returns the middle value of xs (mean of the middle two for
// even lengths). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// benchSamples builds a synthetic stream-shaped training task: latency
// is the mean of feature 0 over the sample's window.
func benchSamples(n, features, window int, seed int64) *ml.SampleView {
	rng := stats.NewStream(seed)
	out := ml.NewSampleBank(features, window, n)
	recent := make([]float64, 0, n) // feature 0 of every row so far
	for i := 0; i < n; i++ {
		row := make([]float64, features)
		row[0] = rng.Float64()
		row[1] = rng.NormFloat64()
		recent = append(recent, row[0])
		var sum float64
		for _, v := range recent[max(0, len(recent)-window):] {
			sum += v
		}
		out.Feats = append(out.Feats, row...)
		out.PushTarget(sum/float64(window), row[1] > 0, row[0] > 0.7)
	}
	return out
}
