// Package topo defines the FatTree data center topology MimicNet assumes
// (paper §2, §4.2): clusters of racks, each rack holding hosts under a
// Top-of-Rack (ToR) switch, aggregation ("Cluster") switches above the
// ToRs, and Core switches interconnecting the clusters. Packets follow
// strict up-down routing with ECMP at the fan-out points.
//
// Every node has a dense integer ID so the packet simulator can use flat
// slices. Hosts occupy [0, Hosts()); switches follow.
package topo

import (
	"fmt"
)

// Kind classifies a node.
type Kind uint8

// Node kinds, in ID-range order.
const (
	KindHost Kind = iota
	kindToR
	KindAgg
	KindCore
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case kindToR:
		return "tor"
	case KindAgg:
		return "agg"
	case KindCore:
		return "core"
	}
	return "unknown"
}

// Config parameterizes a FatTree.
type Config struct {
	Clusters        int // number of clusters (pods)
	RacksPerCluster int // ToR switches per cluster
	HostsPerRack    int // hosts under each ToR
	AggPerCluster   int // aggregation switches per cluster
	CoresPerAgg     int // core switches attached to each agg index
}

// DefaultConfig mirrors the paper's small-scale setup: 2 clusters with a
// modest fan-out, suitable for generating Mimic training data.
func DefaultConfig() Config {
	return Config{
		Clusters:        2,
		RacksPerCluster: 2,
		HostsPerRack:    4,
		AggPerCluster:   2,
		CoresPerAgg:     2,
	}
}

// Validate reports whether the configuration is structurally sound.
func (c Config) Validate() error {
	switch {
	case c.Clusters < 1:
		return fmt.Errorf("topo: need >= 1 cluster, have %d", c.Clusters)
	case c.RacksPerCluster < 1:
		return fmt.Errorf("topo: need >= 1 rack per cluster, have %d", c.RacksPerCluster)
	case c.HostsPerRack < 1:
		return fmt.Errorf("topo: need >= 1 host per rack, have %d", c.HostsPerRack)
	case c.AggPerCluster < 1:
		return fmt.Errorf("topo: need >= 1 agg per cluster, have %d", c.AggPerCluster)
	case c.CoresPerAgg < 1:
		return fmt.Errorf("topo: need >= 1 core per agg, have %d", c.CoresPerAgg)
	}
	return nil
}

// WithClusters returns a copy of the config scaled to n clusters, keeping
// all per-cluster structure identical — the "traffic patterns that scale
// proportionally" restriction (paper §4.2) requires exactly this.
func (c Config) WithClusters(n int) Config {
	c.Clusters = n
	return c
}

// Topology is an immutable FatTree instance with dense node IDs.
type Topology struct {
	cfg Config

	hosts, tors, aggs, cores   int
	torBase, aggBase, coreBase int
}

// New builds a topology, panicking on invalid configuration (construction
// happens at setup time where an error return would only be re-panicked).
func New(cfg Config) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Topology{cfg: cfg}
	t.hosts = cfg.Clusters * cfg.RacksPerCluster * cfg.HostsPerRack
	t.tors = cfg.Clusters * cfg.RacksPerCluster
	t.aggs = cfg.Clusters * cfg.AggPerCluster
	t.cores = cfg.AggPerCluster * cfg.CoresPerAgg
	t.torBase = t.hosts
	t.aggBase = t.torBase + t.tors
	t.coreBase = t.aggBase + t.aggs
	return t
}

// Config returns the topology parameters.
func (t *Topology) Config() Config { return t.cfg }

// Hosts returns the number of hosts.
func (t *Topology) Hosts() int { return t.hosts }

// Nodes returns the total node count (hosts + switches).
func (t *Topology) Nodes() int { return t.coreBase + t.cores }

// HostsPerCluster returns hosts in one cluster.
func (t *Topology) HostsPerCluster() int {
	return t.cfg.RacksPerCluster * t.cfg.HostsPerRack
}

// HostID returns the dense ID for a host by (cluster, rack, slot).
func (t *Topology) HostID(cluster, rack, slot int) int {
	return (cluster*t.cfg.RacksPerCluster+rack)*t.cfg.HostsPerRack + slot
}

// ToRID returns the dense ID for a ToR by (cluster, rack).
func (t *Topology) ToRID(cluster, rack int) int {
	return t.torBase + cluster*t.cfg.RacksPerCluster + rack
}

// AggID returns the dense ID for an aggregation switch by (cluster, index).
func (t *Topology) AggID(cluster, idx int) int {
	return t.aggBase + cluster*t.cfg.AggPerCluster + idx
}

// CoreID returns the dense ID for a core switch. Core switches are grouped
// by the aggregation index they serve: core (aggIdx, j) connects to agg
// switch aggIdx of every cluster.
func (t *Topology) CoreID(aggIdx, j int) int {
	return t.coreBase + aggIdx*t.cfg.CoresPerAgg + j
}

// KindOf classifies a node ID.
func (t *Topology) KindOf(id int) Kind {
	switch {
	case id < t.torBase:
		return KindHost
	case id < t.aggBase:
		return kindToR
	case id < t.coreBase:
		return KindAgg
	default:
		return KindCore
	}
}

// ClusterOf returns the cluster a host/ToR/agg belongs to, or -1 for core
// switches (which belong to no cluster).
func (t *Topology) ClusterOf(id int) int {
	switch t.KindOf(id) {
	case KindHost:
		return id / t.HostsPerCluster()
	case kindToR:
		return (id - t.torBase) / t.cfg.RacksPerCluster
	case KindAgg:
		return (id - t.aggBase) / t.cfg.AggPerCluster
	}
	return -1
}

// RackOf returns the rack index (within its cluster) of a host or ToR,
// or -1 otherwise.
func (t *Topology) RackOf(id int) int {
	switch t.KindOf(id) {
	case KindHost:
		return (id % t.HostsPerCluster()) / t.cfg.HostsPerRack
	case kindToR:
		return (id - t.torBase) % t.cfg.RacksPerCluster
	}
	return -1
}

// SlotOf returns a host's index within its rack, or -1 for non-hosts.
func (t *Topology) SlotOf(id int) int {
	if t.KindOf(id) != KindHost {
		return -1
	}
	return id % t.cfg.HostsPerRack
}

// AggIndexOf returns an agg switch's index within its cluster, or the agg
// group a core switch serves; -1 otherwise.
func (t *Topology) AggIndexOf(id int) int {
	switch t.KindOf(id) {
	case KindAgg:
		return (id - t.aggBase) % t.cfg.AggPerCluster
	case KindCore:
		return (id - t.coreBase) / t.cfg.CoresPerAgg
	}
	return -1
}

// CoreSlotOf returns a core switch's index within its agg group, -1
// otherwise.
func (t *Topology) CoreSlotOf(id int) int {
	if t.KindOf(id) != KindCore {
		return -1
	}
	return (id - t.coreBase) % t.cfg.CoresPerAgg
}

// Name returns a debugging label like "host(c0,r1,s2)" or "core(a1,j0)".
func (t *Topology) Name(id int) string {
	switch t.KindOf(id) {
	case KindHost:
		return fmt.Sprintf("host(c%d,r%d,s%d)", t.ClusterOf(id), t.RackOf(id), t.SlotOf(id))
	case kindToR:
		return fmt.Sprintf("tor(c%d,r%d)", t.ClusterOf(id), t.RackOf(id))
	case KindAgg:
		return fmt.Sprintf("agg(c%d,a%d)", t.ClusterOf(id), t.AggIndexOf(id))
	default:
		return fmt.Sprintf("core(a%d,j%d)", t.AggIndexOf(id), t.CoreSlotOf(id))
	}
}

// Link is an undirected physical link between two nodes.
type Link struct{ A, B int }

// Links enumerates every physical link: host–ToR, ToR–agg, agg–core.
func (t *Topology) Links() []Link {
	var links []Link
	for c := 0; c < t.cfg.Clusters; c++ {
		for r := 0; r < t.cfg.RacksPerCluster; r++ {
			tor := t.ToRID(c, r)
			for s := 0; s < t.cfg.HostsPerRack; s++ {
				links = append(links, Link{t.HostID(c, r, s), tor})
			}
			for a := 0; a < t.cfg.AggPerCluster; a++ {
				links = append(links, Link{tor, t.AggID(c, a)})
			}
		}
		for a := 0; a < t.cfg.AggPerCluster; a++ {
			for j := 0; j < t.cfg.CoresPerAgg; j++ {
				links = append(links, Link{t.AggID(c, a), t.CoreID(a, j)})
			}
		}
	}
	return links
}

// FlowHash is a cheap deterministic hash for ECMP path selection, stable
// across runs for a given flow identity.
func FlowHash(src, dst int, flowSeq uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(src))
	mix(uint64(dst))
	mix(flowSeq)
	// Final avalanche so low bits are well mixed for modulo use.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// MaxPathLen is the node count of the longest route: host, ToR, agg,
// core, agg, ToR, host.
const MaxPathLen = 7

// Path returns the strict up-down ECMP route from src host to dst host as
// a node ID sequence, inclusive of both endpoints. The hash picks among
// equal-cost choices: the agg switch on the way up and, for inter-cluster
// traffic, the core switch. The downward path is then fully determined
// (FatTree property), which is what lets MimicNet decompose cluster
// modeling into ingress and egress halves.
func (t *Topology) Path(src, dst int, hash uint64) []int {
	return t.AppendPath(nil, src, dst, hash)
}

// AppendPath appends the route Path returns to buf. With MaxPathLen of
// spare capacity in buf it allocates nothing, which is how a packet
// carries its route inline (netsim.Packet.Route).
func (t *Topology) AppendPath(buf []int, src, dst int, hash uint64) []int {
	if t.KindOf(src) != KindHost || t.KindOf(dst) != KindHost {
		panic(fmt.Sprintf("topo: Path endpoints must be hosts, got %s -> %s", t.Name(src), t.Name(dst)))
	}
	if src == dst {
		return append(buf, src)
	}
	sc, sr := t.ClusterOf(src), t.RackOf(src)
	dc, dr := t.ClusterOf(dst), t.RackOf(dst)
	srcToR := t.ToRID(sc, sr)
	dstToR := t.ToRID(dc, dr)
	if srcToR == dstToR {
		return append(buf, src, srcToR, dst)
	}
	aggIdx := int(hash % uint64(t.cfg.AggPerCluster))
	if sc == dc {
		return append(buf, src, srcToR, t.AggID(sc, aggIdx), dstToR, dst)
	}
	coreSlot := int((hash / uint64(t.cfg.AggPerCluster)) % uint64(t.cfg.CoresPerAgg))
	return append(buf,
		src, srcToR,
		t.AggID(sc, aggIdx),
		t.CoreID(aggIdx, coreSlot),
		t.AggID(dc, aggIdx),
		dstToR, dst,
	)
}
