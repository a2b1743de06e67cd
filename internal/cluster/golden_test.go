package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"mimicnet/internal/sim"
	"mimicnet/internal/transport"
)

// The composed engine has committed goldens (core/testdata/
// engine_parity.json); full fidelity used to be checked run-vs-run only.
// testdata/full_parity.json pins it: every protocol at N=2 and N=4, at a
// load high enough that queues drop and ECN marks, captured from the
// closure-per-hop kernel that preceded typed events and packet arenas.
// A kernel, fabric or transport change that consumes one sequence number
// differently, reorders one same-timestamp pair or reuses a packet that
// is still in flight shows up here as a changed fingerprint.

const fullGoldenPath = "testdata/full_parity.json"

// resultsFingerprint is the SHA-256 of a Results value: exact float64 bit
// patterns, sorted FCTByID keys, and the event / packet / drop counters.
func resultsFingerprint(r Results) string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(xs []float64) {
		wu(uint64(len(xs)))
		for _, x := range xs {
			wu(math.Float64bits(x))
		}
	}
	ws(r.FCTs)
	ws(r.Throughputs)
	ws(r.RTTs)
	ids := make([]string, 0, len(r.FCTByID))
	for id := range r.FCTByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	wu(uint64(len(ids)))
	for _, id := range ids {
		h.Write([]byte(id))
		wu(math.Float64bits(r.FCTByID[id]))
	}
	wu(r.Events)
	wu(r.Packets)
	wu(r.Drops)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFullFidelityGolden reruns every pinned full-fidelity configuration
// and compares fingerprints. Regenerate with MIMICNET_UPDATE_GOLDEN=1 only
// when a change is supposed to alter simulation schedules.
func TestFullFidelityGolden(t *testing.T) {
	update := os.Getenv("MIMICNET_UPDATE_GOLDEN") != ""
	golden := map[string]string{}
	if !update {
		blob, err := os.ReadFile(fullGoldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with MIMICNET_UPDATE_GOLDEN=1 to capture): %v", err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, name := range transport.Names() {
		for _, n := range []int{2, 4} {
			key := fmt.Sprintf("%s-n%d", name, n)
			cfg := smallConfig(name)
			cfg.Topo = cfg.Topo.WithClusters(n)
			cfg.Workload.Load = 0.9
			cfg.Workload.Seed = 11
			inst, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inst.Run(150 * sim.Millisecond)
			res := inst.Results()
			if len(res.FCTByID) == 0 || res.Events == 0 {
				t.Fatalf("%s: no flows completed; case exercises nothing", key)
			}
			got[key] = resultsFingerprint(res)
			if update {
				t.Logf("%s: events=%d packets=%d drops=%d", key, res.Events, res.Packets, res.Drops)
				continue
			}
			if want, ok := golden[key]; !ok {
				t.Errorf("%s: no golden fingerprint recorded", key)
			} else if got[key] != want {
				t.Errorf("%s: fingerprint %s != golden %s (events=%d packets=%d drops=%d)",
					key, got[key][:16], want[:16], res.Events, res.Packets, res.Drops)
			}
		}
	}
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fullGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d fingerprints)", fullGoldenPath, len(got))
	}
}
