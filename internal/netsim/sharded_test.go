package netsim

import (
	"testing"

	"mimicnet/internal/sim"
	"mimicnet/internal/topo"
)

// TestShardedFabricMatchesSequential checks the netsim half of the
// sharding tentpole in isolation: a fabric partitioned across two LPs at
// the cluster boundary must deliver every packet at exactly the same
// simulated time as the single-process fabric, with matching counters.
//
// Every packet is taken from the pool of one LP and released into the
// other's, and every delivery is answered from the receiving LP's pool, so
// packet memory migrates between the two all run long; `make test-race`
// runs this with four workers. The second pass poisons released packets,
// so a use after release would panic instead of reading a reused packet.
func TestShardedFabricMatchesSequential(t *testing.T) {
	t.Run("recycled", testShardedFabricMatchesSequential)
	t.Run("poisoned", func(t *testing.T) {
		PoisonReleasedPackets(t)
		testShardedFabricMatchesSequential(t)
	})
}

func testShardedFabricMatchesSequential(t *testing.T) {
	tc := topo.Config{
		Clusters: 2, RacksPerCluster: 2, HostsPerRack: 2,
		AggPerCluster: 2, CoresPerAgg: 1,
	}
	tp := topo.New(tc)
	link := DefaultLinkConfig()
	const horizon = 200 * sim.Millisecond

	type delivery struct {
		id uint64
		at sim.Time
	}
	run := func(sharded bool) ([][]delivery, *Fabric, *sim.Parallel) {
		var f *Fabric
		var par *sim.Parallel
		simFor := func(node int) *sim.Simulator { return f.Sim }
		if sharded {
			par = sim.NewParallel(2, link.Delay)
			par.NumWorkers = 4
			shardOf := make([]int, tp.Nodes())
			for n := range shardOf {
				if tp.ClusterOf(n) == 1 {
					shardOf[n] = 1
				}
			}
			f = NewShardedFabric(par.LPs, shardOf, tp, link)
			simFor = func(node int) *sim.Simulator {
				return par.LPs[shardOf[node]].Sim
			}
		} else {
			f = NewFabric(sim.New(), tp, link)
		}
		// One slot per host: a host is delivered to by its own LP only, so
		// shards append to disjoint elements (a shared map would race).
		got := make([][]delivery, tp.Hosts())
		for h := 0; h < tp.Hosts(); h++ {
			h := h
			s := simFor(h)
			f.RegisterHost(h, func(pkt *Packet) {
				got[h] = append(got[h], delivery{pkt.ID, s.Now()})
				if pkt.Seq > 0 { // bounces left
					reply := f.Packets(h).Get()
					reply.ID, reply.Seq = pkt.ID+1000, pkt.Seq-1
					reply.Src, reply.Dst, reply.Hash = h, pkt.Src, pkt.Hash+1
					reply.Size = mtu
					reply.Route(tp)
					f.Inject(reply)
				}
			})
		}
		// Bidirectional cross-cluster fan-out, several packets per pair so
		// queues build and serialize: every packet crosses an LP boundary
		// twice (agg->core, core->agg).
		id := uint64(0)
		for i := 0; i < tp.Hosts()/2; i++ {
			src := i
			dst := tp.Hosts()/2 + i
			for k := 0; k < 5; k++ {
				for _, pair := range [][2]int{{src, dst}, {dst, src}} {
					id++
					pkt := f.Packets(pair[0]).Get()
					pkt.ID, pkt.Seq = id, 3
					pkt.Src, pkt.Dst, pkt.Hash = pair[0], pair[1], id
					pkt.Size = mtu
					pkt.Route(tp)
					f.Inject(pkt)
				}
			}
		}
		if sharded {
			par.Run(horizon)
		} else {
			f.Sim.RunUntil(horizon)
		}
		return got, f, par
	}

	seq, seqF, _ := run(false)
	shr, shrF, par := run(true)

	count := func(got [][]delivery) (n int) {
		for _, g := range got {
			n += len(g)
		}
		return n
	}
	if count(seq) == 0 {
		t.Fatal("sequential run delivered nothing")
	}
	if got, want := count(shr), count(seq); got != want {
		t.Fatalf("delivered %d vs %d", got, want)
	}
	if got, want := shrF.Injected(), seqF.Injected(); got != want {
		t.Errorf("injected %d vs %d", got, want)
	}
	if got, want := shrF.Drops(), seqF.Drops(); got != want {
		t.Errorf("drops %d vs %d", got, want)
	}
	for h, want := range seq {
		got := shr[h]
		if len(got) != len(want) {
			t.Fatalf("host %d: %d deliveries vs %d", h, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("host %d delivery %d: %+v vs %+v", h, i, got[i], want[i])
			}
		}
	}
	if par.Barriers == 0 {
		t.Error("sharded run used no synchronization windows")
	}
	if par.CausalityClamps != 0 {
		t.Errorf("%d causality clamps on link-delay lookahead", par.CausalityClamps)
	}
}
