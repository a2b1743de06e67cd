// Package workload generates the synthetic traffic MimicNet requires: a
// per-host model of flow arrival, flow size, and cluster-level locality
// that is independent of the size of the network (paper §4.2). Because
// each host's demand derives from its own seeded stream, growing the
// data center from 2 clusters to N leaves every existing host's offered
// load untouched—the property that lets models trained at small scale
// transfer to large compositions.
package workload

import (
	"fmt"
	"math"
	"sort"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
)

// Flow is one generated transfer. When After is non-zero the flow is
// dependent: it starts Start after the flow with ID After completes
// (co-flow support; see coflow.go).
type Flow struct {
	ID    uint64
	Src   int
	Dst   int
	Bytes int64
	Start sim.Time
	After uint64
}

// Config parameterizes generation. The defaults mirror the paper's
// evaluation: 70% of bisection bandwidth, heavy-tailed flow sizes with a
// configurable mean (paper: 1.6 MB), and web-search-style locality.
type Config struct {
	Seed int64

	// Load is the target utilization as a fraction of each host's link
	// bandwidth (FatTrees have full bisection, so per-host load equals
	// bisection load).
	Load float64
	// HostLinkBps is the host link rate used to convert Load into a byte
	// arrival rate.
	HostLinkBps float64

	// MeanFlowBytes is the mean of the heavy-tailed flow size
	// distribution.
	MeanFlowBytes float64

	// Locality: probability a flow's destination is in the same rack or
	// in the same cluster (different rack). The remainder crosses
	// clusters. Paper §4 assumes workloads may exhibit cluster-level
	// locality; these are the knobs.
	PIntraRack    float64
	PIntraCluster float64

	// Duration is the generation horizon.
	Duration sim.Time

	// MinFlowBytes/MaxFlowBytes clamp sampled sizes (0 = default clamp);
	// equal bounds give every flow that one size.
	MinFlowBytes, MaxFlowBytes int64
}

// DefaultConfig returns the paper-flavored configuration scaled by the
// provided mean flow size (pass 0 for the paper's 1.6 MB).
func DefaultConfig(meanFlowBytes float64) Config {
	if meanFlowBytes <= 0 {
		meanFlowBytes = 1.6e6
	}
	return Config{
		Seed:          1,
		Load:          0.70,
		HostLinkBps:   100e6,
		MeanFlowBytes: meanFlowBytes,
		PIntraRack:    0.3,
		PIntraCluster: 0.3,
		Duration:      sim.Second,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !(c.Load > 0 && c.Load <= 1.5): // NaN is in no range
		return fmt.Errorf("workload: load %v out of range", c.Load)
	case c.HostLinkBps <= 0:
		return fmt.Errorf("workload: non-positive link rate")
	case math.IsNaN(c.MeanFlowBytes) || math.IsInf(c.MeanFlowBytes, 0):
		return fmt.Errorf("workload: mean flow size %v is not finite", c.MeanFlowBytes)
	case c.MeanFlowBytes <= 0:
		return fmt.Errorf("workload: non-positive mean flow size")
	case 40*c.MeanFlowBytes >= math.MaxInt64 || c.meanInterarrival()*float64(sim.Second) >= math.MaxInt64:
		// Generate clamps sizes at 40× the mean and adds interarrival
		// gaps as int64 nanoseconds; past either range the schedule
		// would wrap instead of reaching Duration.
		return fmt.Errorf("workload: mean flow size %v B is too large to schedule in int64 bytes and nanoseconds", c.MeanFlowBytes)
	case c.PIntraRack < 0 || c.PIntraCluster < 0 || c.PIntraRack+c.PIntraCluster > 1:
		return fmt.Errorf("workload: invalid locality split (%v, %v)", c.PIntraRack, c.PIntraCluster)
	case c.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration")
	}
	return nil
}

// meanInterarrival is one host's mean time between flow starts, in
// seconds: the mean flow size over the byte rate Load asks of its link.
func (c Config) meanInterarrival() float64 {
	return c.sizeDist().Mean() / (c.Load * c.HostLinkBps / 8)
}

// sizeDist returns the flow size distribution: a heavy-tailed log-normal
// (sigma 1.8) matching the configured mean, clamped to sane bounds.
func (c Config) sizeDist() stats.LogNormal {
	const sigma = 1.8
	mu := math.Log(c.MeanFlowBytes) - sigma*sigma/2
	return stats.LogNormal{Mu: mu, Sigma: sigma}
}

func (c Config) clamp(v float64) int64 {
	min, max := c.MinFlowBytes, c.MaxFlowBytes
	if min <= 0 {
		min = 100
	}
	if max <= 0 {
		max = int64(40 * c.MeanFlowBytes)
		if max < min {
			max = min
		}
	}
	b := int64(v)
	if b < min {
		b = min
	}
	if b > max {
		b = max
	}
	return b
}

// Generate produces the full flow schedule for a topology, sorted by
// start time. Flow IDs encode (src host, per-host sequence) so they are
// stable under scaling.
func Generate(t *topo.Topology, cfg Config) ([]Flow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var flows []Flow
	root := stats.NewStream(cfg.Seed)
	sizes := cfg.sizeDist()
	gaps := stats.Exponential{MeanVal: cfg.meanInterarrival()} // seconds

	for src := 0; src < t.Hosts(); src++ {
		// Each host derives its own stream from (seed, host index) so the
		// schedule of existing hosts is invariant under adding clusters.
		hs := root.Derive(fmt.Sprintf("host-%d", src))
		at := sim.Time(0)
		seq := uint64(0)
		for {
			// A gap is compared before it is added, so one from the far
			// tail ends the host's schedule instead of wrapping at.
			gap := gaps.Sample(hs) * float64(sim.Second)
			if gap >= math.MaxInt64 || sim.Time(gap) >= cfg.Duration-at {
				break
			}
			at += sim.Time(gap)
			dst := pickDst(t, src, hs, cfg)
			if dst == src {
				continue
			}
			flows = append(flows, Flow{
				ID:    flowID(src, seq),
				Src:   src,
				Dst:   dst,
				Bytes: cfg.clamp(sizes.Sample(hs)),
				Start: at,
			})
			seq++
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Start != flows[j].Start {
			return flows[i].Start < flows[j].Start
		}
		return flows[i].ID < flows[j].ID
	})
	return flows, nil
}

// flowID packs a stable flow identity from source host and sequence.
func flowID(src int, seq uint64) uint64 {
	return uint64(src)<<40 | (seq & (1<<40 - 1))
}

func pickDst(t *topo.Topology, src int, s *stats.Stream, cfg Config) int {
	c, r := t.ClusterOf(src), t.RackOf(src)
	tc := t.Config()
	roll := s.Float64()
	switch {
	case roll < cfg.PIntraRack && tc.HostsPerRack > 1:
		// Same rack, different host.
		slot := s.Intn(tc.HostsPerRack - 1)
		if slot >= t.SlotOf(src) {
			slot++
		}
		return t.HostID(c, r, slot)
	case roll < cfg.PIntraRack+cfg.PIntraCluster && tc.RacksPerCluster > 1:
		// Same cluster, different rack.
		rack := s.Intn(tc.RacksPerCluster - 1)
		if rack >= r {
			rack++
		}
		return t.HostID(c, rack, s.Intn(tc.HostsPerRack))
	default:
		if tc.Clusters == 1 {
			// No remote clusters: fall back to any other host.
			dst := s.Intn(t.Hosts() - 1)
			if dst >= src {
				dst++
			}
			return dst
		}
		cluster := s.Intn(tc.Clusters - 1)
		if cluster >= c {
			cluster++
		}
		return t.HostID(cluster, s.Intn(tc.RacksPerCluster), s.Intn(tc.HostsPerRack))
	}
}
