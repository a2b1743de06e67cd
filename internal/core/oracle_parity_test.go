package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

// This file holds the per-request inference oracle — the engine the
// determinism tests compare the batched scheduler against — and pins it.
// The oracle is the production scheduler flushed per request: every
// model step is a one-lane round whose continuation runs synchronously
// inside ProcessAsync, so each lane's feature extractions, RNG draws and
// hidden-state updates happen in arrival order with no flush event in
// the queue. The fingerprints in testdata/oracle_parity.json were
// captured from the inline per-packet path this oracle replaced (one
// model step per boundary packet through a per-Mimic scalar model), and
// the oracle reproduces every entry byte-for-byte, Events included (the
// hybrid entries were re-captured with the measured-population fix that
// moved only their FCTs, as in engine_parity.json).

const oracleGoldenPath = "testdata/oracle_parity.json"

// newOracleEngine builds the per-request oracle engine for a role
// vector: every request flushed as it arrives, and feeders as kernel
// events (newFeederOracle), as when the fingerprints were captured.
func newOracleEngine(cfg cluster.Config, roles []roleKind, models *MimicModels) (*Engine, error) {
	e, _, err := newFeederOracle(cfg, roles, models, true)
	return e, err
}

// newTestEngine builds the per-request oracle when oracle is set, else
// the production engine.
func newTestEngine(cfg cluster.Config, roles []roleKind, models *MimicModels, oracle bool) (*Engine, error) {
	if oracle {
		return newOracleEngine(cfg, roles, models)
	}
	return startEngine(cfg, roles, models)
}

// newOracleMimic is a standalone Mimic for cluster clusterIdx on its own
// per-request scheduler, the driver for tests that feed one Mimic
// packets by hand.
func newOracleMimic(models *MimicModels, clusterIdx int, seed int64) *mimic {
	s := newInferenceScheduler(sim.New(), models, 0, bankPool)
	s.perRequest = true
	return newMimic(models, clusterIdx, stats.NewParent(seed), s)
}

// process returns the outcome of one packet in one direction. On a
// per-request scheduler ProcessAsync delivers it before returning.
func (m *mimic) process(dir Direction, info PacketInfo) outcome {
	var out outcome
	m.ProcessAsync(dir, info, nil, func(_ *netsim.Packet, _ PacketInfo, o outcome) { out = o })
	return out
}

// oracleCase is one oracle run pinned by the golden file: the
// configurations of TestGoldenDeterminism (composed N=3), TestFlushSplit
// (composed N=4), TestGoldenDeterminismHybrid (both directions) and
// N=3 at 200 ms, the sequential leg of a since-deleted sharded witness.
type oracleCase struct {
	name  string
	n     int       // composed cluster count; 0 for a hybrid
	dir   Direction // hybrid direction
	until sim.Time
}

var oracleCases = []oracleCase{
	{name: "composed-n3", n: 3, until: 300 * sim.Millisecond},
	{name: "composed-n4", n: 4, until: 200 * sim.Millisecond},
	{name: "hybrid-ingress", dir: Ingress, until: 250 * sim.Millisecond},
	{name: "hybrid-egress", dir: Egress, until: 250 * sim.Millisecond},
	{name: "seqinfer-n3/seq", n: 3, until: 200 * sim.Millisecond},
}

func runOracleCase(t *testing.T, models *MimicModels, oc oracleCase) cluster.Results {
	t.Helper()
	cfg := fastBase()
	roles := hybridRoles(oc.dir)
	if oc.n > 0 {
		cfg.Topo = cfg.Topo.WithClusters(oc.n)
		roles = composedRoles(oc.n)
	}
	e, err := newOracleEngine(cfg, roles, models)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(oc.until)
	return e.Results()
}

// TestOracleParity reruns every pinned oracle configuration and requires
// its Results fingerprint to equal the golden one. Regenerate with
// MIMICNET_UPDATE_GOLDEN=1 only when the oracle is supposed to change
// what it simulates, and say so in the commit.
func TestOracleParity(t *testing.T) {
	models := trainedForScheduler(t)
	update := os.Getenv("MIMICNET_UPDATE_GOLDEN") != ""
	golden := map[string]string{}
	if !update {
		blob, err := os.ReadFile(oracleGoldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with MIMICNET_UPDATE_GOLDEN=1 to capture): %v", err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, oc := range oracleCases {
		res := runOracleCase(t, models, oc)
		if len(res.FCTByID) == 0 {
			t.Fatalf("%s: no flows completed; case exercises nothing", oc.name)
		}
		got[oc.name] = resultsFingerprint(res)
		if want, ok := golden[oc.name]; !update && !ok {
			t.Errorf("%s: no golden fingerprint recorded", oc.name)
		} else if !update && got[oc.name] != want {
			t.Errorf("%s: fingerprint %s != oracle golden %s", oc.name, got[oc.name][:16], want[:16])
		}
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(oracleGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d fingerprints)", oracleGoldenPath, len(got))
	}
}
