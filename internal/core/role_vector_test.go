package core

import (
	"fmt"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
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

// runOnPool builds an engine through newEngine on a pool of the given
// number of workers, with every flush priced over the dispatch floor so
// that its lane groups split across the pool's workers (decision 29),
// and runs it.
func runOnPool(t *testing.T, cfg cluster.Config, roles []ClusterRole, models *MimicModels, workers int, until sim.Time) cluster.Results {
	t.Helper()
	pool := ml.NewPool(workers)
	defer pool.Close()
	e, err := newEngine(cfg, roles, models, pool)
	if err != nil {
		t.Fatal(err)
	}
	e.startFeeders()
	for _, s := range e.scheds {
		s.stepCost = [2]int{1 << 30, 1 << 30}
	}
	e.Run(until)
	return e.Results()
}

// checkRoleVectorDeterminism asserts that one role vector's schedule is
// exact: run through runOnPool at 1, 2 and 4 workers and once more at
// 4, every run's fingerprint, Events included, must be the first one's.
func checkRoleVectorDeterminism(t *testing.T, models *MimicModels, roles []ClusterRole) {
	t.Helper()
	const until = 100 * sim.Millisecond
	label := ""
	for _, r := range roles {
		label += fmt.Sprintf("[%s]", r.Kind)
	}
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(len(roles))
	var firstFP string
	for _, workers := range []int{1, 2, 4, 4} {
		res := runOnPool(t, cfg, roles, models, workers, until)
		if len(res.FCTByID) == 0 {
			t.Fatalf("%s: no flows completed; vector exercises nothing", label)
		}
		fp := resultsFingerprint(res)
		if firstFP == "" {
			firstFP = fp
		} else if fp != firstFP {
			t.Errorf("%s workers=%d: fingerprint %.16s diverged from the first run's %.16s", label, workers, fp, firstFP)
		}
	}
}

// TestRoleVectorDeterminism draws 8 seeded role vectors at N=4 and checks
// each; FuzzRoleVector explores the rest of the 256 codes with the same
// body.
func TestRoleVectorDeterminism(t *testing.T) {
	models := trainedForScheduler(t)
	rng := stats.NewStream(16)
	for i := 0; i < 8; i++ {
		checkRoleVectorDeterminism(t, models, rolesFromCode(uint8(rng.Intn(256))))
	}
}

func FuzzRoleVector(f *testing.F) {
	f.Add(uint8(0b01_01_01_00)) // the paper's composition: observed + 3 mimics
	f.Add(uint8(0b11_10_01_00)) // one of each kind
	f.Fuzz(func(t *testing.T, code uint8) {
		checkRoleVectorDeterminism(t, trainedForScheduler(t), rolesFromCode(code))
	})
}
