package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/stats"
)

// span is one traced interval: a whole op (Parent == 0) or one call into
// a layer made on the op's behalf. Times are seconds since the run began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root (an op)
	Op     int     `json:"op"`     // shared by an op span and its children
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// phase is one timed call into a layer together with the behavioural
// work it did (packets simulated, model steps, sample-epochs trained).
// Work counts are fixed by the inputs, not by how the code executes them,
// so seconds×nominal/work is comparable across seeds.
type phase struct {
	name       string
	sec, bytes float64 // wall-clock and TotalAlloc delta
	mallocs    float64
	work       float64 // 0 = not normalised (fixed-cost phase)
	nominal    float64
}

// opRec collects what one op measured.
type opRec struct {
	r      *run
	id     int // op id, 1-based; 0 = discarded warm-up
	sub    int // which sub-seed (or job kind) the op used
	traced bool
	spanID int
	start  time.Time
	phases []phase
	counts map[string]float64 // what the op's results say it did
	total  float64            // whole-op wall-clock
}

func (o *opRec) count(name string, v float64) {
	if o.counts == nil {
		o.counts = map[string]float64{}
	}
	o.counts[name] = v
}

// scaled returns the op's seconds and allocated bytes at nominal size:
// each normalised phase is rescaled by nominal/work and everything else
// (fixed-cost phases, time between phases) is kept as measured.
func (o *opRec) scaled() (sec, bytes float64) {
	var inPhases float64
	for _, p := range o.phases {
		k := 1.0
		if p.work > 0 {
			k = p.nominal / p.work
		}
		sec += p.sec * k
		bytes += p.bytes * k
		inPhases += p.sec
	}
	return sec + (o.total - inPhases), bytes
}

// phase times fn, a call into one layer. fn returns the behavioural work
// it did; nominal is the work of a typical op, in the same unit (0 with
// work 0 for a fixed-cost call).
func (o *opRec) phase(name string, nominal float64, fn func() (work float64, err error)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	work, err := fn()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.phases = append(o.phases, phase{
		name: name, sec: t1.Sub(t0).Seconds(),
		bytes:   float64(m1.TotalAlloc - m0.TotalAlloc),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		work:    work, nominal: nominal,
	})
	o.childSpan(name, t0, t1)
	return nil
}

// childSpan records a span under the op's own span when the op is
// traced. Times taken from another goroutine's clock reads are pulled
// inside the op, so that children always nest.
func (o *opRec) childSpan(name string, from, to time.Time) {
	if !o.traced {
		return
	}
	if from.Before(o.start) {
		from = o.start
	}
	if to.Before(from) {
		to = from
	}
	o.r.addSpan(o.spanID, o.id, name, from, to)
}

func (o *opRec) find(name string) *phase {
	for i := range o.phases {
		if o.phases[i].name == name {
			return &o.phases[i]
		}
	}
	return nil
}

// addSpan appends to the in-memory trace; it is written out at exit.
func (r *run) addSpan(parent, op int, name string, from, to time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: from.Sub(r.t0).Seconds(), End: to.Sub(r.t0).Seconds(),
	})
	return id
}

// Host speed. The sandbox shares its cores and caches with other
// machines, and code like the simulators (event heaps, small allocations,
// garbage collection) runs 1.1 to 1.6 times slower, in episodes several
// times slower, for seconds to minutes while they are busy; a loop that
// stays in registers or in cache does not slow down at all. calibrate is a fixed piece of work of the
// simulators' kind, built from the standard library alone so that no
// change to the repository can alter it: an event queue of calibLive
// heap-allocated events from which calibSteps times the earliest is taken
// and a newly allocated one put back. A run calibrates around each set-up
// and every calibEvery between ops, and reports its timings at the speed
// of a host on which one calibration takes calibReference seconds.
const (
	calibLive      = 64 << 10 // 4 MB of events: more than a core's own cache
	calibSteps     = 200_000
	calibEvery     = time.Second
	calibReference = 0.09 // seconds: the build host when it is quiet
)

type calibEvent struct {
	at  float64
	pad [7]uint64 // a 64-byte object, about a simulated packet's size class
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// hostSpeed collects the calibrations of one part of a run.
type hostSpeed struct {
	last time.Time // when the latest calibration ended
	secs []float64
}

// calibrate times one more calibration, outside every timed region.
func (h *hostSpeed) calibrate() {
	runtime.GC()
	h.secs = append(h.secs, calibrate())
	h.last = time.Now()
}

// slowdown is how much slower than the reference host this one ran its
// calibrations, as a factor.
func (h *hostSpeed) slowdown() float64 { return median(h.secs) / calibReference }

// calibrate returns the wall-clock of one calibration, in seconds.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252) // xorshift64: the same event times every call
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x % 100_000)
	}
	q := make(calibQueue, 0, calibLive)
	for i := 0; i < calibLive; i++ {
		q = append(q, &calibEvent{at: next()})
	}
	heap.Init(&q)
	for i := 0; i < calibSteps; i++ {
		e := heap.Pop(&q).(*calibEvent)
		heap.Push(&q, &calibEvent{at: e.at + next()/10})
	}
	return time.Since(t0).Seconds()
}

// fingerprint hashes everything a simulation's outcome consists of, so a
// change that alters simulated behaviour cannot pass as a speed-up. The
// event count follows the digest after a '+': the sharded engine runs
// extra barrier events, so it equals the sequential one only up to there.
func fingerprint(res cluster.Results) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, xs := range [][]float64{res.FCTs, res.Throughputs, res.RTTs} {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	ids := make([]string, 0, len(res.FCTByID))
	for id := range res.FCTByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h.Write([]byte(id))
		put(math.Float64bits(res.FCTByID[id]))
	}
	put(res.Packets)
	put(res.Drops)
	return fmt.Sprintf("%s+%d", hex.EncodeToString(h.Sum(nil))[:16], res.Events)
}

// behaviour is the part of a fingerprint every engine must agree on.
func behaviour(fp string) string {
	digest, _, _ := strings.Cut(fp, "+")
	return digest
}

// checkSame records fp under key the first time and afterwards requires
// every repetition of the same op to reproduce it.
func (r *run) checkSame(key, fp string) error {
	if prev, ok := r.prints[key]; ok && prev != fp {
		return fmt.Errorf("%s: fingerprint %s differs from earlier %s", key, fp, prev)
	}
	r.prints[key] = fp
	return nil
}

// quantile is stats.Quantile, except that no samples give 0: every
// metric must be a number JSON can carry.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subSeed derives the k-th workload seed of a run from the run's seed.
// It is never 0, which JobSpec would replace by its default.
func subSeed(seed int64, k int) int64 {
	s := (seed*1000 + int64(k)) & math.MaxInt64
	if s == 0 {
		s = 1
	}
	return s
}
