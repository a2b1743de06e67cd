// Package stats provides seeded random streams, the probability
// distributions used by the workload and feeder models, and small online
// statistics (EWMA, histograms, quantiles) shared across the simulator.
//
// Everything is deterministic under a fixed seed: MimicNet keeps seeds
// consistent between variants and changes them across training, testing,
// and cross-validation (paper §8), and this package is where all of the
// framework's randomness originates.
package stats

import (
	"math"
	"math/rand"
)

// Stream is a seeded source of randomness. Distinct simulation components
// take distinct streams (derived via Derive) so that adding randomness to
// one component does not perturb another.
//
// A Stream's position is checkpointable: every draw, whatever its
// distribution, consumes exactly one value from the underlying source, so
// (seed, draws) pins the stream's state exactly. State and RestoreStream
// are what make killed-and-resumed training runs bitwise identical to
// uninterrupted ones.
type Stream struct {
	rng  *rand.Rand
	src  *countingSource
	seed int64
}

// countingSource wraps the stdlib source, counting source-level draws.
// It forwards Uint64 so rand.Rand takes the exact same code paths (and
// therefore produces the exact same value sequence) as an unwrapped
// rand.NewSource.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// NewStream returns a stream seeded with the given seed.
func NewStream(seed int64) *Stream {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Stream{rng: rand.New(src), src: src, seed: seed}
}

// StreamState is a Stream's serializable position: the seed plus the
// number of source-level values consumed so far. RestoreStream rebuilds a
// stream at exactly this position.
type StreamState struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// State snapshots the stream's position.
func (s *Stream) State() StreamState {
	return StreamState{Seed: s.seed, Draws: s.src.n}
}

// RestoreStream rebuilds a stream at the given position by fast-forward:
// a fresh source is advanced st.Draws steps. All rand.Rand draw kinds
// (Float64, Intn, NormFloat64, shuffles, ...) consume whole source values,
// so the restored stream continues the original's sequence exactly.
func RestoreStream(st StreamState) *Stream {
	s := NewStream(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		s.src.src.Uint64()
	}
	s.src.n = st.Draws
	return s
}

// Derive returns a child stream whose seed combines the parent seed space
// with the given label, so component streams are stable as code evolves.
// It consumes one draw of s.
func (s *Stream) Derive(label string) *Stream {
	return Parent(s.rng.Int63()).Derive(label)
}

// DeriveInto is Derive into an existing stream: it reseeds child in
// place, after which child is exactly s.Derive(label), the same values
// and a State() of zero draws. A caller that derives one child after
// another (a stream per host, each dropped once its draws are taken)
// reuses one source instead of allocating a fresh one per child.
func (s *Stream) DeriveInto(child *Stream, label string) {
	seed := Parent(s.rng.Int63()).seed(label)
	child.rng.Seed(seed) // reseeds child.src, which resets its draw count
	child.seed = seed
}

// Parent is the draw a fresh stream's Derive takes: NewParent(seed)
// holds the first value of NewStream(seed), and Parent.Derive(label) is
// NewStream(seed).Derive(label), bit for bit. A component that derives
// many children of one seed draws that value once, instead of seeding a
// whole source per child only to read its first value.
type Parent int64

// NewParent returns the first draw of NewStream(seed).
func NewParent(seed int64) Parent { return Parent(NewStream(seed).rng.Int63()) }

// Derive returns the child stream labelled label.
func (p Parent) Derive(label string) *Stream { return NewStream(p.seed(label)) }

// seed is the seed of the child stream labelled label.
func (p Parent) seed(label string) int64 {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return h ^ int64(p)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0, n).
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rng.NormFloat64() }

// ExpFloat64 returns an exponential variate with mean 1.
func (s *Stream) ExpFloat64() float64 { return s.rng.ExpFloat64() }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Exponential is an exponential distribution with the given mean.
type Exponential struct{ MeanVal float64 }

// Sample draws an exponential variate.
func (d Exponential) Sample(s *Stream) float64 { return s.ExpFloat64() * d.MeanVal }

// LogNormal is a log-normal distribution parameterized by the mu/sigma of
// the underlying normal. The paper observed that simple log-normal
// distributions produced reasonable approximations of packet interarrival
// times (§6).
type LogNormal struct{ Mu, Sigma float64 }

// Sample draws a log-normal variate.
func (d LogNormal) Sample(s *Stream) float64 {
	return math.Exp(d.Mu + d.Sigma*s.NormFloat64())
}

// Mean returns exp(mu + sigma^2/2).
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// FitLogNormal estimates a LogNormal from positive samples via the method
// of moments on log-values. Non-positive samples are ignored; if fewer
// than two usable samples exist, a degenerate near-constant distribution
// around the sample mean (or fallback) is returned.
func FitLogNormal(samples []float64, fallbackMean float64) LogNormal {
	var n int
	var sum, sumsq float64
	for _, v := range samples {
		if v <= 0 {
			continue
		}
		lv := math.Log(v)
		sum += lv
		sumsq += lv * lv
		n++
	}
	if n < 2 {
		m := fallbackMean
		if m <= 0 {
			m = 1
		}
		return LogNormal{Mu: math.Log(m), Sigma: 1e-9}
	}
	mu := sum / float64(n)
	variance := sumsq/float64(n) - mu*mu
	if variance < 0 {
		variance = 0
	}
	return LogNormal{Mu: mu, Sigma: math.Sqrt(variance)}
}
