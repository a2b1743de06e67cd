package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"mimicnet/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestW1Identical(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := W1(a, a); got != 0 {
		t.Errorf("W1(a,a) = %v, want 0", got)
	}
}

func TestW1Shift(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 3, 4}
	if got := W1(a, b); !almost(got, 1.0, 1e-12) {
		t.Errorf("W1 shift = %v, want 1.0", got)
	}
}

func TestW1UnequalLengths(t *testing.T) {
	// a = {0,1} uniform-ish; b = {0, 0.5, 1}. Exact integral check:
	// CDF_a steps 0->0.5 at 0, ->1 at 1. CDF_b steps 1/3 at 0, 2/3 at .5, 1 at 1.
	// |diff| over (0,0.5): |0.5-1/3|=1/6; over (0.5,1): |0.5-2/3|=1/6.
	// Integral = 1/6*0.5 + 1/6*0.5 = 1/6.
	a := []float64{0, 1}
	b := []float64{0, 0.5, 1}
	if got := W1(a, b); !almost(got, 1.0/6, 1e-12) {
		t.Errorf("W1 unequal = %v, want %v", got, 1.0/6)
	}
}

func TestW1Symmetric(t *testing.T) {
	a := []float64{1, 5, 9, 2}
	b := []float64{3, 3, 7}
	if !almost(W1(a, b), W1(b, a), 1e-12) {
		t.Error("W1 not symmetric")
	}
}

func TestW1Empty(t *testing.T) {
	if !math.IsNaN(W1(nil, []float64{1})) {
		t.Error("W1 with empty input should be NaN")
	}
}

// Property: W1 of a distribution against a constant-shifted copy equals
// the shift magnitude.
func TestW1ShiftProperty(t *testing.T) {
	f := func(raw []float64, shiftRaw int8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return true
		}
		shift := float64(shiftRaw)
		shifted := make([]float64, len(vals))
		for i, v := range vals {
			shifted[i] = v + shift
		}
		return almost(W1(vals, shifted), math.Abs(shift), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality (W1 is a metric).
func TestW1TriangleProperty(t *testing.T) {
	f := func(ar, br, cr [5]int8) bool {
		conv := func(x [5]int8) []float64 {
			out := make([]float64, 5)
			for i, v := range x {
				out[i] = float64(v)
			}
			return out
		}
		a, b, c := conv(ar), conv(br), conv(cr)
		return W1(a, c) <= W1(a, b)+W1(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFlowMSE(t *testing.T) {
	real := map[string]float64{"a": 1, "b": 2, "c": 3}
	mimic := map[string]float64{"a": 1.5, "b": 2, "d": 9}
	mse, overlap := FlowMSE(real, mimic)
	if !almost(overlap, 2.0/3, 1e-12) {
		t.Errorf("overlap = %v, want 2/3", overlap)
	}
	if !almost(mse, 0.125, 1e-12) { // (0.25 + 0) / 2
		t.Errorf("mse = %v, want 0.125", mse)
	}
}

func TestFlowMSENoOverlap(t *testing.T) {
	mse, overlap := FlowMSE(map[string]float64{"a": 1}, map[string]float64{"b": 1})
	if !math.IsNaN(mse) || overlap != 0 {
		t.Errorf("no-overlap FlowMSE = %v, %v", mse, overlap)
	}
	mse, overlap = FlowMSE(nil, nil)
	if !math.IsNaN(mse) || overlap != 0 {
		t.Error("empty FlowMSE should be NaN, 0")
	}
}

func TestCollectorFlows(t *testing.T) {
	c := NewCollector()
	c.FlowStarted("f1", 0, 5, 1000, 1*sim.Second)
	c.FlowStarted("f2", 1, 6, 2000, 1*sim.Second)
	c.FlowCompleted("f1", 3*sim.Second)
	c.FlowCompleted("missing", 4*sim.Second) // unknown flow ignored

	fcts := c.FCTs()
	if len(fcts) != 1 || !almost(fcts[0], 2.0, 1e-9) {
		t.Errorf("FCTs = %v, want [2.0]", fcts)
	}
	byID := c.FCTByID()
	if len(byID) != 1 || !almost(byID["f1"], 2.0, 1e-9) {
		t.Errorf("FCTByID = %v", byID)
	}
	flows := c.Flows()
	if len(flows) != 2 {
		t.Fatalf("Flows len = %d", len(flows))
	}
	if flows[0].ID != "f1" || flows[1].ID != "f2" {
		t.Errorf("Flows not sorted by ID: %v, %v", flows[0].ID, flows[1].ID)
	}
	if flows[1].Complete {
		t.Error("f2 should be incomplete")
	}
}

func TestCollectorThroughput(t *testing.T) {
	c := NewCollector()
	// 1000 bytes in bin 0 and 3000 bytes in bin 1 for host 0.
	c.BytesReceived(0, 1000, 50*sim.Millisecond)
	c.BytesReceived(0, 2000, 150*sim.Millisecond)
	c.BytesReceived(0, 1000, 160*sim.Millisecond)
	tps := c.Throughputs()
	if len(tps) != 2 {
		t.Fatalf("throughput samples = %v", tps)
	}
	// 1000 bytes / 0.1s = 10000 Bps; 3000/0.1 = 30000 Bps (sorted ascending).
	if !almost(tps[0], 10000, 1e-6) || !almost(tps[1], 30000, 1e-6) {
		t.Errorf("throughputs = %v", tps)
	}
}

func TestCollectorRTT(t *testing.T) {
	c := NewCollector()
	c.RTTSample(0.002)
	c.RTTSample(0.001)
	rtts := c.RTTs()
	if len(rtts) != 2 || rtts[0] != 0.001 {
		t.Errorf("RTTs = %v", rtts)
	}
}

func TestFlowRecordFCT(t *testing.T) {
	f := FlowRecord{Start: sim.Second, End: 2 * sim.Second}
	if !almost(f.FCT(), 1.0, 1e-12) {
		t.Errorf("FCT = %v", f.FCT())
	}
}

func TestKS(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := KS(a, a); got != 0 {
		t.Errorf("KS(a,a) = %v", got)
	}
	// Disjoint supports: KS = 1.
	if got := KS([]float64{1, 2}, []float64{10, 20}); got != 1 {
		t.Errorf("disjoint KS = %v, want 1", got)
	}
	// Half-overlap: {0,1} vs {1,2}: max diff at x in [0,1): |0.5-0| = 0.5.
	if got := KS([]float64{0, 1}, []float64{1, 2}); !almost(got, 0.5, 1e-12) {
		t.Errorf("KS = %v, want 0.5", got)
	}
	if !math.IsNaN(KS(nil, a)) {
		t.Error("empty KS should be NaN")
	}
	if !almost(KS(a, []float64{1, 2, 3}), KS([]float64{1, 2, 3}, a), 1e-12) {
		t.Error("KS not symmetric")
	}
}

// Property: KS is within [0,1] and zero only for identical multisets.
func TestKSBoundsProperty(t *testing.T) {
	f := func(ar, br [6]int8) bool {
		a := make([]float64, 6)
		b := make([]float64, 6)
		for i := range ar {
			a[i], b[i] = float64(ar[i]), float64(br[i])
		}
		ks := KS(a, b)
		return ks >= 0 && ks <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMergedEqualsUnified checks the shard-merge helper: scattering the
// same samples across several collectors and merging must reproduce the
// unified collector's outputs exactly.
func TestMergedEqualsUnified(t *testing.T) {
	type ev struct {
		host  int
		bytes int64
		at    sim.Time
	}
	unified := NewCollector()
	parts := []*Collector{NewCollector(), NewCollector(), NewCollector()}
	flows := []struct {
		id       string
		src, dst int
		bytes    int64
		start    sim.Time
		end      sim.Time
	}{
		{"a", 0, 4, 1000, 0, 10 * sim.Millisecond},
		{"b", 1, 5, 2000, 2 * sim.Millisecond, 0}, // never completes
		{"c", 2, 6, 3000, sim.Millisecond, 30 * sim.Millisecond},
		{"d", 3, 7, 500, 5 * sim.Millisecond, 7 * sim.Millisecond},
	}
	for i, f := range flows {
		for _, c := range []*Collector{unified, parts[i%len(parts)]} {
			c.FlowStarted(f.id, f.src, f.dst, f.bytes, f.start)
			if f.end != 0 {
				c.FlowCompleted(f.id, f.end)
			}
		}
	}
	rtts := []float64{0.004, 0.001, 0.003, 0.002}
	for i, r := range rtts {
		unified.RTTSample(r)
		parts[i%len(parts)].RTTSample(r)
	}
	evs := []ev{{4, 100, sim.Millisecond}, {4, 200, 150 * sim.Millisecond},
		{5, 300, sim.Millisecond}, {4, 50, 2 * sim.Millisecond}}
	for i, e := range evs {
		unified.BytesReceived(e.host, e.bytes, e.at)
		parts[i%len(parts)].BytesReceived(e.host, e.bytes, e.at)
	}

	m := Merged(parts...)
	cmp := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d samples", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	cmp("FCTs", unified.FCTs(), m.FCTs())
	cmp("RTTs", unified.RTTs(), m.RTTs())
	cmp("Throughputs", unified.Throughputs(), m.Throughputs())
	uf, mf := unified.FCTByID(), m.FCTByID()
	if len(uf) != len(mf) {
		t.Fatalf("FCTByID: %d vs %d", len(uf), len(mf))
	}
	for id, v := range uf {
		if mf[id] != v {
			t.Errorf("FCTByID[%s]: %v vs %v", id, mf[id], v)
		}
	}
	if len(m.Flows()) != len(unified.Flows()) {
		t.Errorf("Flows: %d vs %d", len(m.Flows()), len(unified.Flows()))
	}
}

// TestMergedBinWidthMismatchPanics pins the merge precondition.
func TestMergedBinWidthMismatchPanics(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	b.ThroughputBin = a.ThroughputBin * 2
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bin-width mismatch")
		}
	}()
	Merged(a, b)
}
