// Package obs is the runtime telemetry layer: a dependency-free registry
// of atomic counters, gauges, and fixed-bucket histograms, exposed in
// Prometheus text format over HTTP (mimicnetd's GET /metrics).
//
// It is distinct from internal/metrics, which implements the *paper's
// evaluation* math (W1/CDF over simulation outputs); obs answers the
// operational questions — events/sec, GEMM pool queue depth, causality
// clamps, phase latency — while a daemon is live.
//
// Design rules (DESIGN.md decision 10):
//
//   - Instrumentation on hot paths must be allocation-free: series are
//     preallocated at registration, Counter/Gauge updates are single
//     atomic ops, Histogram.Observe is a bounded scan plus atomic adds,
//     and Span is a value type. No update takes a lock.
//   - Telemetry only observes. Nothing read from obs may feed back into
//     simulation or training decisions, so instrumented runs stay
//     bitwise identical to uninstrumented ones.
//   - Series are registered once (package-level vars, or per-instance
//     cells attached via the Register* methods) and live for the
//     process; scrapes never create state.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing series. The zero value is ready
// to use, so instances can embed counters without registration.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a series that can go up and down. The zero value is ready.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (cumulative at
// exposition, per-bucket internally). Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. The zero
// value is NOT usable — buckets must be set — so histograms are built
// with NewHistogram (directly or via Registry.Histogram).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a standalone histogram over the given ascending
// upper bounds. Panics on empty or unsorted bounds: a histogram with
// broken buckets would silently misreport forever.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Allocation-free: a bounded linear scan over
// the bucket bounds (small and cache-resident by construction) plus three
// atomic updates. NaN observations are dropped — they would poison the
// sum and land in no meaningful bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (not a copy; do not modify).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns the cumulative bucket counts aligned with Bounds(),
// plus the +Inf total as the final element. The snapshot is taken bucket
// by bucket, so concurrent observers can make it momentarily understate
// later buckets — never decrease across scrapes.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.buckets))
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor: {start, start·f, start·f², …}.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TimeBuckets is the default latency bucket layout: 1 µs to ~67 s in
// ×4 steps, wide enough for both per-window barrier waits and multi-
// second training phases.
func TimeBuckets() []float64 { return ExpBuckets(1e-6, 4, 13) }

// Span measures one phase: StartSpan stamps the clock, End observes the
// elapsed wall time in seconds into the histogram. A Span is a value —
// starting and ending one allocates nothing.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing against h (nil h yields an inert span).
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed time and returns it.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}

// Default returns the process-global registry. Package-level series in
// sim/ml/core register here at init; mimicnetd serves it at /metrics.
func Default() *Registry { return defaultRegistry }

var defaultRegistry = newRegistry()
