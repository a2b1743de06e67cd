package topo

import (
	"math"
	"testing"
	"testing/quick"
)

func testTopo() *Topology {
	return New(Config{
		Clusters:        3,
		RacksPerCluster: 2,
		HostsPerRack:    4,
		AggPerCluster:   2,
		CoresPerAgg:     2,
	})
}

func TestCounts(t *testing.T) {
	tp := testTopo()
	if got, want := tp.Hosts(), 3*2*4; got != want {
		t.Errorf("Hosts = %d, want %d", got, want)
	}
	if got, want := tp.cores, 2*2; got != want {
		t.Errorf("Cores = %d, want %d", got, want)
	}
	if got, want := tp.Nodes(), 24+6+6+4; got != want {
		t.Errorf("Nodes = %d, want %d", got, want)
	}
	if got, want := tp.HostsPerCluster(), 8; got != want {
		t.Errorf("HostsPerCluster = %d, want %d", got, want)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Clusters: 1},
		{Clusters: 1, RacksPerCluster: 1},
		{Clusters: 1, RacksPerCluster: 1, HostsPerRack: 1},
		{Clusters: 1, RacksPerCluster: 1, HostsPerRack: 1, AggPerCluster: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestWithClusters(t *testing.T) {
	cfg := DefaultConfig().WithClusters(16)
	if cfg.Clusters != 16 {
		t.Errorf("Clusters = %d", cfg.Clusters)
	}
	if cfg.RacksPerCluster != DefaultConfig().RacksPerCluster {
		t.Error("WithClusters changed per-cluster structure")
	}
}

func TestIDsRoundTrip(t *testing.T) {
	tp := testTopo()
	cfg := tp.Config()
	seen := make(map[int]bool)
	for c := 0; c < cfg.Clusters; c++ {
		for r := 0; r < cfg.RacksPerCluster; r++ {
			for s := 0; s < cfg.HostsPerRack; s++ {
				id := tp.HostID(c, r, s)
				if seen[id] {
					t.Fatalf("duplicate host ID %d", id)
				}
				seen[id] = true
				if tp.KindOf(id) != KindHost {
					t.Errorf("KindOf(%d) = %v, want host", id, tp.KindOf(id))
				}
				if tp.ClusterOf(id) != c || tp.RackOf(id) != r || tp.SlotOf(id) != s {
					t.Errorf("host (%d,%d,%d) round-trip failed: got (%d,%d,%d)",
						c, r, s, tp.ClusterOf(id), tp.RackOf(id), tp.SlotOf(id))
				}
			}
			tor := tp.ToRID(c, r)
			if tp.KindOf(tor) != kindToR || tp.ClusterOf(tor) != c || tp.RackOf(tor) != r {
				t.Errorf("ToR (%d,%d) round-trip failed", c, r)
			}
		}
		for a := 0; a < cfg.AggPerCluster; a++ {
			agg := tp.AggID(c, a)
			if tp.KindOf(agg) != KindAgg || tp.ClusterOf(agg) != c || tp.AggIndexOf(agg) != a {
				t.Errorf("Agg (%d,%d) round-trip failed", c, a)
			}
		}
	}
	for a := 0; a < cfg.AggPerCluster; a++ {
		for j := 0; j < cfg.CoresPerAgg; j++ {
			core := tp.CoreID(a, j)
			if tp.KindOf(core) != KindCore || tp.AggIndexOf(core) != a || tp.CoreSlotOf(core) != j {
				t.Errorf("Core (%d,%d) round-trip failed", a, j)
			}
			if tp.ClusterOf(core) != -1 {
				t.Error("core should have cluster -1")
			}
		}
	}
}

func TestNonHostAccessors(t *testing.T) {
	tp := testTopo()
	tor := tp.ToRID(0, 0)
	if tp.SlotOf(tor) != -1 {
		t.Error("SlotOf(tor) should be -1")
	}
	if tp.AggIndexOf(tor) != -1 {
		t.Error("AggIndexOf(tor) should be -1")
	}
	if tp.CoreSlotOf(tor) != -1 {
		t.Error("CoreSlotOf(tor) should be -1")
	}
	if tp.RackOf(tp.AggID(0, 0)) != -1 {
		t.Error("RackOf(agg) should be -1")
	}
}

func TestNames(t *testing.T) {
	tp := testTopo()
	cases := map[int]string{
		tp.HostID(1, 0, 2): "host(c1,r0,s2)",
		tp.ToRID(2, 1):     "tor(c2,r1)",
		tp.AggID(0, 1):     "agg(c0,a1)",
		tp.CoreID(1, 0):    "core(a1,j0)",
	}
	for id, want := range cases {
		if got := tp.Name(id); got != want {
			t.Errorf("Name(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindHost.String() != "host" || KindCore.String() != "core" ||
		kindToR.String() != "tor" || KindAgg.String() != "agg" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}

func TestLinksCount(t *testing.T) {
	tp := testTopo()
	cfg := tp.Config()
	want := tp.Hosts() + // host-ToR
		cfg.Clusters*cfg.RacksPerCluster*cfg.AggPerCluster + // ToR-agg
		cfg.Clusters*cfg.AggPerCluster*cfg.CoresPerAgg // agg-core
	if got := len(tp.Links()); got != want {
		t.Errorf("Links = %d, want %d", got, want)
	}
}

func TestPathSameHost(t *testing.T) {
	tp := testTopo()
	p := tp.Path(3, 3, 0)
	if len(p) != 1 || p[0] != 3 {
		t.Errorf("self path = %v", p)
	}
}

func TestPathSameRack(t *testing.T) {
	tp := testTopo()
	src, dst := tp.HostID(0, 0, 0), tp.HostID(0, 0, 1)
	p := tp.Path(src, dst, 12345)
	want := []int{src, tp.ToRID(0, 0), dst}
	if len(p) != 3 || p[0] != want[0] || p[1] != want[1] || p[2] != want[2] {
		t.Errorf("same-rack path = %v, want %v", p, want)
	}
}

func TestPathIntraCluster(t *testing.T) {
	tp := testTopo()
	src, dst := tp.HostID(0, 0, 0), tp.HostID(0, 1, 0)
	p := tp.Path(src, dst, 7)
	if len(p) != 5 {
		t.Fatalf("intra-cluster path = %v, want 5 hops", p)
	}
	if tp.KindOf(p[2]) != KindAgg || tp.ClusterOf(p[2]) != 0 {
		t.Errorf("middle hop %s should be an agg in cluster 0", tp.Name(p[2]))
	}
}

func TestPathInterCluster(t *testing.T) {
	tp := testTopo()
	src, dst := tp.HostID(0, 0, 0), tp.HostID(2, 1, 3)
	p := tp.Path(src, dst, 99)
	if len(p) != 7 {
		t.Fatalf("inter-cluster path = %v, want 7 hops", p)
	}
	if tp.KindOf(p[3]) != KindCore {
		t.Errorf("hop 3 = %s, want core", tp.Name(p[3]))
	}
	// FatTree invariant: up-agg and down-agg share the same agg index
	// (the core determines the downward path).
	if tp.AggIndexOf(p[2]) != tp.AggIndexOf(p[4]) {
		t.Error("up/down agg index mismatch: core connectivity violated")
	}
	if tp.AggIndexOf(p[3]) != tp.AggIndexOf(p[2]) {
		t.Error("core not in the chosen agg group")
	}
}

func TestPathPanicsOnSwitchEndpoint(t *testing.T) {
	tp := testTopo()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for switch endpoint")
		}
	}()
	tp.Path(tp.ToRID(0, 0), 0, 0)
}

// Property: every path is valid up-down — consecutive hops always share a
// physical link, and path kinds follow host,tor(,agg(,core,agg),tor),host.
func TestPathValidityProperty(t *testing.T) {
	tp := testTopo()
	linkSet := make(map[[2]int]bool)
	for _, l := range tp.Links() {
		linkSet[[2]int{l.A, l.B}] = true
		linkSet[[2]int{l.B, l.A}] = true
	}
	f := func(srcRaw, dstRaw uint16, hash uint64) bool {
		src := int(srcRaw) % tp.Hosts()
		dst := int(dstRaw) % tp.Hosts()
		p := tp.Path(src, dst, hash)
		if src == dst {
			return len(p) == 1
		}
		for i := 1; i < len(p); i++ {
			if !linkSet[[2]int{p[i-1], p[i]}] {
				return false
			}
		}
		return p[0] == src && p[len(p)-1] == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ECMP spreads one host pair's flows binomially: over n FlowHash draws
// (flow IDs 0..n-1) each agg switch must carry Binomial(n, 1/A) of them
// and each core switch Binomial(n, 1/(A·C)), for A aggs per cluster and
// C cores per agg. The tolerance is fixed in advance at ecmpZ standard
// deviations, two-sided: a uniform hash falls outside it with
// probability about 6e-5 per switch, so a failure means a skewed hash
// or a biased modulo split, not bad luck.
func TestECMPSpreadsLoad(t *testing.T) {
	const (
		n     = 4096
		ecmpZ = 4.0
	)
	shapes := []Config{
		testTopo().Config(), // 2 aggs × 2 cores
		{Clusters: 2, RacksPerCluster: 2, HostsPerRack: 4, AggPerCluster: 4, CoresPerAgg: 3},
	}
	for _, cfg := range shapes {
		tp := New(cfg)
		src, dst := tp.HostID(0, 0, 0), tp.HostID(1, 1, 3)
		aggs, cores := map[int]int{}, map[int]int{}
		for seq := uint64(0); seq < n; seq++ {
			p := tp.Path(src, dst, FlowHash(src, dst, seq))
			aggs[p[2]]++
			cores[p[3]]++
		}
		check := func(kind string, counts map[int]int, ids []int) {
			t.Helper()
			if len(counts) != len(ids) {
				t.Errorf("%d aggs × %d cores: flows crossed %d %s switches, want %d",
					cfg.AggPerCluster, cfg.CoresPerAgg, len(counts), kind, len(ids))
			}
			p := 1 / float64(len(ids))
			mean, sd := n*p, math.Sqrt(n*p*(1-p))
			for _, id := range ids {
				if got := float64(counts[id]); math.Abs(got-mean) > ecmpZ*sd {
					t.Errorf("%d aggs × %d cores: %s %s carries %v of %d flows, want %.0f ± %.1f (%.0fσ)",
						cfg.AggPerCluster, cfg.CoresPerAgg, kind, tp.Name(id), got, n, mean, ecmpZ*sd, ecmpZ)
				}
			}
		}
		var aggIDs, coreIDs []int
		for a := 0; a < cfg.AggPerCluster; a++ {
			aggIDs = append(aggIDs, tp.AggID(0, a))
			for j := 0; j < cfg.CoresPerAgg; j++ {
				coreIDs = append(coreIDs, tp.CoreID(a, j))
			}
		}
		check("agg", aggs, aggIDs)
		check("core", cores, coreIDs)
	}
}

func TestFlowHashDeterministic(t *testing.T) {
	if FlowHash(1, 2, 3) != FlowHash(1, 2, 3) {
		t.Error("FlowHash not deterministic")
	}
	if FlowHash(1, 2, 3) == FlowHash(2, 1, 3) {
		t.Error("FlowHash should be direction-sensitive")
	}
}
