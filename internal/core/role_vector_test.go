package core

import (
	"fmt"
	"testing"

	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

// rolesFromCode decodes one byte into an N=4 role vector, two bits per
// cluster over {observed, mimic, hybrid-ingress, hybrid-egress}. A
// vector that decodes with no observed cluster gets cluster 0 observed,
// so every byte is a valid composition.
func rolesFromCode(code uint8) []ClusterRole {
	roles := make([]ClusterRole, 4)
	observed := false
	for i := range roles {
		roles[i].Kind = RoleKind(code >> (2 * i) & 3)
		observed = observed || roles[i].Kind == RoleObserved
	}
	if !observed {
		roles[0].Kind = RoleObserved
	}
	return roles
}

// checkRoleVectorSeqSharded asserts seq ≡ sharded for one role vector:
// the sharded engine at 1, 2 and 4 workers must reproduce the sequential
// event loop's Results (Events excepted — sharding adds per-LP scheduler
// flushes) and be fingerprint-identical, Events included, across worker
// counts. Vectors containing a hybrid-egress cluster get the allowance
// TestShardedHybridMatchesSequential documents: their same-nanosecond
// tie class may order differently between the two modes, so only the
// worker-count invariance of the sharded schedule is asserted.
//
// The tie class is wider than that allowance: a vector with two or more
// full-fidelity (observed or hybrid-ingress) clusters can diverge too,
// most likely through the same mechanism (remote events enter at window
// barriers, the sequential heap interleaves them mid-window) acting on
// real traffic. Of the 81 codes without a hybrid-egress
// cluster, 23 fail the seq ≡ sharded assertion (19 of the 65 distinct
// vectors they decode to; code 0x00, every cluster observed, carries
// 27 420 packets sequential and 27 421 sharded), and every vector of the
// composed shape (one observed cluster, the rest Mimics) passes.
// TestRoleVectorSeqSharded's eight draws miss them; FuzzRoleVector finds
// them. The sharded schedule stays exact across worker counts for all
// of them (TestShardedFullFidelityTieClass pins code 0x00).
func checkRoleVectorSeqSharded(t *testing.T, models *MimicModels, roles []ClusterRole) {
	t.Helper()
	const until = 100 * sim.Millisecond
	label := ""
	tieClass := false
	for _, r := range roles {
		label += fmt.Sprintf("[%s]", r.Kind)
		tieClass = tieClass || r.Kind == RoleHybridEgress
	}
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(len(roles))

	seqCfg := cfg
	seqCfg.ShardedRun = -1
	_, seq := runRoles(t, seqCfg, roles, models, until)
	if len(seq.FCTByID) == 0 {
		t.Fatalf("%s: no flows completed; vector exercises nothing", label)
	}
	var firstFP string
	for _, workers := range []int{1, 2, 4} {
		shCfg := cfg
		shCfg.ShardedRun = 1
		shCfg.NumWorkers = workers
		eng, shr := runRoles(t, shCfg, roles, models, until)
		if !eng.Sharded() {
			t.Fatalf("%s: forced sharding fell back to sequential", label)
		}
		if n := eng.Parallel().CausalityClamps; n != 0 {
			t.Errorf("%s workers=%d: %d causality clamps", label, workers, n)
		}
		if !tieClass {
			sameResults(t, fmt.Sprintf("%s workers=%d", label, workers), seq, shr)
		}
		fp := resultsFingerprint(shr)
		if firstFP == "" {
			firstFP = fp
		} else if fp != firstFP {
			t.Errorf("%s workers=%d: sharded fingerprint diverged from workers=1", label, workers)
		}
	}
}

// TestShardedFullFidelityTieClass pins code 0x00, every cluster
// observed: the role vector Figure 2 shards. It sits in the tie class
// checkRoleVectorSeqSharded documents, so sequential and sharded may
// differ, but the sharded schedule itself must be exact across worker
// counts, Events included, with no causality clamp.
func TestShardedFullFidelityTieClass(t *testing.T) {
	const until = 100 * sim.Millisecond
	roles := rolesFromCode(0x00)
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(len(roles))
	cfg.ShardedRun = 1
	var firstFP string
	for _, workers := range []int{1, 2, 4} {
		cfg.NumWorkers = workers
		eng, res := runRoles(t, cfg, roles, nil, until)
		if !eng.Sharded() {
			t.Fatalf("workers=%d: forced sharding fell back to sequential", workers)
		}
		if n := eng.Parallel().CausalityClamps; n != 0 {
			t.Errorf("workers=%d: %d causality clamps", workers, n)
		}
		fp := resultsFingerprint(res)
		if firstFP == "" {
			firstFP = fp
		} else if fp != firstFP {
			t.Errorf("workers=%d: fingerprint diverged from workers=1", workers)
		}
	}
}

// TestRoleVectorSeqSharded draws 8 seeded role vectors at N=4 and checks
// each; FuzzRoleVector explores the rest of the 256 codes with the same
// body.
func TestRoleVectorSeqSharded(t *testing.T) {
	models := trainedForScheduler(t)
	rng := stats.NewStream(16)
	for i := 0; i < 8; i++ {
		checkRoleVectorSeqSharded(t, models, rolesFromCode(uint8(rng.Intn(256))))
	}
}

func FuzzRoleVector(f *testing.F) {
	f.Add(uint8(0b01_01_01_00)) // the paper's composition: observed + 3 mimics
	f.Add(uint8(0b11_10_01_00)) // one of each kind
	f.Fuzz(func(t *testing.T, code uint8) {
		checkRoleVectorSeqSharded(t, trainedForScheduler(t), rolesFromCode(code))
	})
}
