package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/sim"
)

// This file is the engine-vs-legacy golden parity suite. The fingerprints
// in testdata/engine_parity.json were captured from the pre-refactor
// Composed/Hybrid runtimes (the exact commit that still contained both);
// the role-based Engine that replaced them must reproduce every
// configuration bit-for-bit. The hybrid entries were re-captured once,
// when hybrids started measuring only flows that touch the observed
// cluster (cluster.New's rule): only FCTs and FCTByID moved; Events,
// Packets, Drops, Throughputs and RTTs stayed equal. The suite reruns
// under every forced GEMM kernel family via `make test-kernels` — the
// goldens are kernel-independent because all families are bitwise
// identical.

const parityGoldenPath = "testdata/engine_parity.json"

// resultsFingerprint canonicalizes a Results value into a SHA-256 hex
// digest: exact float64 bit patterns, sorted map keys, and the event /
// packet / drop counters. Two runs fingerprint equal iff sameResults
// would pass AND Events match.
func resultsFingerprint(r cluster.Results) string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }
	ws := func(xs []float64) {
		wu(uint64(len(xs)))
		for _, x := range xs {
			wf(x)
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
		wf(r.FCTByID[id])
	}
	wu(r.Events)
	wu(r.Packets)
	wu(r.Drops)
	if r.Cancelled {
		wu(1)
	} else {
		wu(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parityCase is one legacy configuration pinned by the golden file.
type parityCase struct {
	name  string
	kind  string // "composed" | "hybrid"
	n     int    // cluster count (composed)
	dir   Direction
	until sim.Time
}

var parityCases = []parityCase{
	{name: "composed-n2", kind: "composed", n: 2, until: 250 * sim.Millisecond},
	{name: "composed-n4", kind: "composed", n: 4, until: 200 * sim.Millisecond},
	{name: "composed-n8", kind: "composed", n: 8, until: 120 * sim.Millisecond},
	{name: "hybrid-ingress", kind: "hybrid", dir: Ingress, until: 250 * sim.Millisecond},
	{name: "hybrid-egress", kind: "hybrid", dir: Egress, until: 250 * sim.Millisecond},
}

func runParityCase(t *testing.T, models *MimicModels, pc parityCase) cluster.Results {
	t.Helper()
	cfg := fastBase()
	switch pc.kind {
	case "composed":
		cfg.Topo = cfg.Topo.WithClusters(pc.n)
		comp, err := Compose(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		comp.Run(pc.until)
		return comp.Results()
	case "hybrid":
		h, err := newHybrid(cfg, models, pc.dir)
		if err != nil {
			t.Fatal(err)
		}
		h.Run(pc.until)
		return h.Results()
	}
	t.Fatalf("unknown parity kind %q", pc.kind)
	return cluster.Results{}
}

// TestEngineGoldenParity proves the role-based engine reproduces the
// legacy Composed and Hybrid runtimes bitwise for every configuration
// the repo ships: composed N∈{2,4,8} and hybrid ingress/egress. The keys
// keep the "/seq" suffix of the sequential mode, the one left when the
// sharded composed engine was deleted. Regenerate the golden file
// with MIMICNET_UPDATE_GOLDEN=1 only when a change is *supposed* to
// alter simulation schedules — and say so in the commit.
func TestEngineGoldenParity(t *testing.T) {
	models := trainedForScheduler(t)
	update := os.Getenv("MIMICNET_UPDATE_GOLDEN") != ""

	golden := map[string]string{}
	if !update {
		blob, err := os.ReadFile(parityGoldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with MIMICNET_UPDATE_GOLDEN=1 to capture): %v", err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}

	got := map[string]string{}
	for _, pc := range parityCases {
		key := pc.name + "/seq"
		res := runParityCase(t, models, pc)
		if len(res.FCTByID) == 0 {
			t.Fatalf("%s: no flows completed; case exercises nothing", key)
		}
		fp := resultsFingerprint(res)
		got[key] = fp
		if !update {
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no golden fingerprint recorded", key)
			} else if fp != want {
				t.Errorf("%s: fingerprint %s != legacy golden %s", key, fp[:16], want[:16])
			}
		}
	}

	if update {
		if err := os.MkdirAll(filepath.Dir(parityGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d fingerprints)", parityGoldenPath, len(got))
	}
}
