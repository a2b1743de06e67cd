package core

import (
	"context"
	"math"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/metrics"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/topo"
	"mimicnet/internal/transport"
	"mimicnet/internal/workload"
)

// fastBase returns a quick 2-cluster base configuration.
func fastBase() cluster.Config {
	cfg := cluster.DefaultConfig(2)
	cfg.Workload = workload.DefaultConfig(20_000)
	cfg.Workload.Duration = 150 * sim.Millisecond
	cfg.Workload.Load = 0.7
	return cfg
}

// fastTrain returns a small, quick training configuration.
func fastTrain() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Dataset.Window = 6
	cfg.Model = ml.DefaultModelConfig(0, 6)
	cfg.Model.Hidden = 12
	cfg.Model.Epochs = 2
	return cfg
}

// trainFast is where every trained-model test starts: datagen on
// fastBase for small simulated time, then one fastTrain training.
func trainFast(small sim.Time) (*MimicModels, error) {
	ing, eg, _, err := GenerateTrainingData(fastBase(), small, fastTrain())
	if err != nil {
		return nil, err
	}
	models, _, _, err := TrainModels(ing, eg, fastTrain())
	return models, err
}

// mustTrainFast is trainFast failing the test on error.
func mustTrainFast(t *testing.T, small sim.Time) *MimicModels {
	t.Helper()
	models, err := trainFast(small)
	if err != nil {
		t.Fatal(err)
	}
	return models
}

func TestFeatureSpecWidth(t *testing.T) {
	spec := NewFeatureSpec(topo.DefaultConfig())
	// 2 racks + 4 servers + 2 aggs + 4 cores + 7 scalars + 4 congestion.
	want := 2 + 4 + 2 + 4 + 7 + 4
	if spec.Width() != want {
		t.Errorf("Width = %d, want %d", spec.Width(), want)
	}
}

func TestFeatureSpecScaleIndependent(t *testing.T) {
	a := NewFeatureSpec(topo.DefaultConfig().WithClusters(2))
	b := NewFeatureSpec(topo.DefaultConfig().WithClusters(128))
	if a.Width() != b.Width() {
		t.Error("feature width changed with cluster count — not scalable")
	}
}

func TestExtractorFeatures(t *testing.T) {
	spec := NewFeatureSpec(topo.DefaultConfig())
	ex := NewExtractor(spec, 0.001, 0.01)
	info := PacketInfo{
		LocalRack: 1, LocalServer: 2, LocalAgg: 0, Core: 3,
		SizeBytes: 1500, IsAck: false, ECT: true, Priority: 4,
		ArrivalTime: sim.Millisecond,
	}
	v := ex.Features(info)
	if len(v) != spec.Width() {
		t.Fatalf("feature len %d != width %d", len(v), spec.Width())
	}
	// One-hot sanity: rack block is [0,1], server block [0,0,1,0].
	if v[0] != 0 || v[1] != 1 {
		t.Errorf("rack one-hot = %v", v[:2])
	}
	if v[2] != 0 || v[3] != 0 || v[4] != 1 || v[5] != 0 {
		t.Errorf("server one-hot = %v", v[2:6])
	}
	// Size scalar at offset racks+servers+aggs+cores.
	off := 2 + 4 + 2 + 4
	if v[off] != 1.0 {
		t.Errorf("size feature = %v, want 1.0 for MTU", v[off])
	}
	// ECT flag set.
	if v[off+4] != 1 {
		t.Errorf("ECT feature = %v", v[off+4])
	}
	// Congestion one-hot sums to 1.
	var sum float64
	for _, x := range v[len(v)-NumCongestionStates:] {
		sum += x
	}
	if sum != 1 {
		t.Errorf("congestion one-hot sum = %v", sum)
	}
}

func TestExtractorTimeFeaturesAdvance(t *testing.T) {
	spec := NewFeatureSpec(topo.DefaultConfig())
	ex := NewExtractor(spec, 0.001, 0.01)
	base := PacketInfo{ArrivalTime: 0, SizeBytes: 100}
	v1 := ex.Features(base)
	base.ArrivalTime = 10 * sim.Millisecond
	v2 := ex.Features(base)
	off := 2 + 4 + 2 + 4 + 1 // gap feature offset
	if v1[off] != v2[off] && v2[off] <= v1[off] {
		t.Errorf("larger gap should give larger time feature: %v vs %v", v1[off], v2[off])
	}
	// A fresh extractor's first packet has no gap, whenever it arrives.
	v3 := NewExtractor(spec, 0.001, 0.01).Features(base)
	if v3[off] != v1[off] {
		t.Error("first-packet gap feature depends on arrival time")
	}
}

func TestCongestionEstimatorStates(t *testing.T) {
	c := newCongestionEstimator(0.001, 0.01)
	if c.State() != CongNone {
		t.Error("fresh estimator should report none")
	}
	// Low latency: none.
	for i := 0; i < 50; i++ {
		c.Observe(0.001, false)
	}
	if c.State() != CongNone {
		t.Errorf("low latency state = %v", c.State())
	}
	// Sudden rise: rising.
	for i := 0; i < 3; i++ {
		c.Observe(0.008, false)
	}
	if s := c.State(); s != CongRising && s != CongHigh {
		t.Errorf("rising latency state = %v", s)
	}
	// Sustained high + drops: high.
	for i := 0; i < 50; i++ {
		c.Observe(0.01, i%3 == 0)
	}
	if c.State() != CongHigh {
		t.Errorf("sustained congestion state = %v", c.State())
	}
	// Recovery: falling.
	for i := 0; i < 10; i++ {
		c.Observe(0.001, false)
	}
	if s := c.State(); s != CongFalling && s != CongNone {
		t.Errorf("recovery state = %v", s)
	}
}

func runTraced(t *testing.T) (*Tracer, *cluster.Simulation) {
	t.Helper()
	inst, err := cluster.New(fastBase())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(inst.Topo, 1)
	tr.Attach(inst)
	inst.Run(300 * sim.Millisecond)
	return tr, inst
}

func TestTracerCapturesBothDirections(t *testing.T) {
	tr, inst := runTraced(t)
	ing, eg := tr.ByDirection()
	if len(ing) == 0 || len(eg) == 0 {
		t.Fatalf("ingress=%d egress=%d records", len(ing), len(eg))
	}
	// Entry order must be non-decreasing.
	for recsIdx, recs := range [][]*TraceRecord{ing, eg} {
		for i := 1; i < len(recs); i++ {
			if recs[i].Entry < recs[i-1].Entry {
				t.Fatalf("direction %d records out of entry order", recsIdx)
			}
		}
	}
	// Latencies of delivered packets must be at least the wire time of
	// two links (agg->tor->host or host->tor->core side).
	minWire := (2 * inst.Cfg.Link.Delay).Seconds()
	for _, r := range tr.Records() {
		if r.Dropped {
			continue
		}
		if r.Latency() < minWire-1e-9 {
			t.Fatalf("%v latency %v below wire floor %v", r.Dir, r.Latency(), minWire)
		}
	}
}

func TestTracerExternalOnly(t *testing.T) {
	tr, inst := runTraced(t)
	for _, r := range tr.Records() {
		_ = r
	}
	// Reconstruct: every traced packet must have exactly one endpoint in
	// cluster 1. We can't see the packets anymore, but Info.LocalRack and
	// Dir were derived from them; instead verify drop/pending accounting.
	if tr.PendingCount() > 50 {
		t.Errorf("suspiciously many unmatched packets: %d", tr.PendingCount())
	}
	_ = inst
}

func TestTracerSeesDropsUnderPressure(t *testing.T) {
	cfg := fastBase()
	cfg.QueueCapacity = 4 // tiny queues force in-cluster drops
	cfg.Workload.Load = 0.95
	inst, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(inst.Topo, 1)
	tr.Attach(inst)
	inst.Run(300 * sim.Millisecond)
	drops := 0
	for _, r := range tr.Records() {
		if r.Dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no drops captured with 4-packet queues at 95% load")
	}
}

func TestBuildDataset(t *testing.T) {
	tr, inst := runTraced(t)
	ing, _ := tr.ByDirection()
	spec := NewFeatureSpec(inst.Cfg.Topo)
	ds, err := buildDataset(Ingress, ing, spec, DatasetConfig{Window: 5, LatencyBins: 50})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != len(ing) {
		t.Errorf("samples %d != records %d", ds.Len(), len(ing))
	}
	var win [][]float64
	for i := 0; i < ds.Len(); i++ {
		win = ds.Samples.WindowAppend(win[:0], i)
		if len(win) != 5 {
			t.Fatalf("sample %d window len %d", i, len(win))
		}
		for _, row := range win {
			if len(row) != spec.Width() {
				t.Fatalf("sample %d feature width %d", i, len(row))
			}
		}
		lat, dropped, _ := ds.Samples.Target(i)
		if lat < 0 || lat > 1 {
			t.Fatalf("sample %d latency %v outside [0,1]", i, lat)
		}
		if dropped && lat != 1.0 {
			t.Fatalf("dropped sample %d latency %v, want 1.0", i, lat)
		}
	}
	if ds.Bounds.Hi <= ds.Bounds.Lo {
		t.Error("degenerate latency bounds")
	}
	if len(ds.Interarrivals) != len(ing)-1 {
		t.Errorf("interarrivals %d, want %d", len(ds.Interarrivals), len(ing)-1)
	}
	train, test := ds.Split(0.8)
	if train.Len()+test.Len() != ds.Len() || test.Len() == 0 {
		t.Error("bad split")
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	if _, err := buildDataset(Ingress, nil, FeatureSpec{}, DatasetConfig{Window: 0}); err == nil {
		t.Error("zero window accepted")
	}
	// Empty records: safe defaults.
	ds, err := buildDataset(Ingress, nil, NewFeatureSpec(topo.DefaultConfig()), DatasetConfig{Window: 3})
	if err != nil || ds.Len() != 0 {
		t.Error("empty dataset mishandled")
	}
}

func TestBoundsFromRecords(t *testing.T) {
	b := boundsFromRecords(nil)
	if b.Hi <= b.Lo {
		t.Error("empty bounds degenerate")
	}
	recs := []*TraceRecord{
		{Entry: 0, Exit: sim.Millisecond, Matched: true},
		{Entry: 0, Exit: 3 * sim.Millisecond, Matched: true},
		{Entry: 0, Dropped: true, Matched: true},
	}
	b = boundsFromRecords(recs)
	if math.Abs(b.Lo-0.001) > 1e-9 || math.Abs(b.Hi-0.003) > 1e-9 {
		t.Errorf("bounds = %+v", b)
	}
}

func TestTrainAndComposePipeline(t *testing.T) {
	base := fastBase()
	ing, eg, _, err := GenerateTrainingData(base, 250*sim.Millisecond, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if ing.Len() == 0 || eg.Len() == 0 {
		t.Fatal("no training samples")
	}
	models, ingEval, _, err := TrainModels(ing, eg, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if ingEval.LatencyMAE > 0.5 {
		t.Errorf("ingress latency MAE %v implausibly bad", ingEval.LatencyMAE)
	}

	// Compose at 4 clusters and compare against ground truth.
	cfg := base
	cfg.Topo = base.Topo.WithClusters(4)
	rep, err := Estimate(context.Background(), cfg, models, 300*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wall <= 0 {
		t.Error("no elapsed time")
	}
	res := rep.Results
	if len(res.FCTs) == 0 || len(res.RTTs) == 0 || len(res.Throughputs) == 0 {
		t.Fatalf("composed run missing metrics: %d FCTs, %d RTTs, %d tputs",
			len(res.FCTs), len(res.RTTs), len(res.Throughputs))
	}

	truthCfg := base
	truthCfg.Topo = base.Topo.WithClusters(4)
	truth, err := cluster.New(truthCfg)
	if err != nil {
		t.Fatal(err)
	}
	truth.Run(300 * sim.Millisecond)
	tres := truth.Results()

	// The approximation is not exact, but the distributions must be in
	// the same regime: median RTT within 4x, p99 FCT within 5x.
	if len(tres.RTTs) > 0 && len(res.RTTs) > 0 {
		mTruth := stats.Quantile(tres.RTTs, 0.5)
		mMimic := stats.Quantile(res.RTTs, 0.5)
		if mMimic > 4*mTruth || mMimic < mTruth/4 {
			t.Errorf("median RTT: mimic %v vs truth %v", mMimic, mTruth)
		}
	}
	w1 := metrics.W1(res.FCTs, tres.FCTs)
	if math.IsNaN(w1) {
		t.Error("FCT W1 not computable")
	}
	t.Logf("4-cluster composition: W1(FCT)=%.4f, flows mimic=%d truth=%d",
		w1, len(res.FCTs), len(tres.FCTs))
}

func TestComposeValidation(t *testing.T) {
	base := fastBase()
	models := &MimicModels{Spec: NewFeatureSpec(base.Topo), Window: 4}
	if _, err := Compose(base, models); err == nil {
		t.Error("incomplete models accepted")
	}
	if _, err := Compose(base, nil); err == nil {
		t.Error("nil models accepted")
	}
	cfg := base
	cfg.Protocol = nil
	if _, err := Compose(cfg, models); err == nil {
		t.Error("nil protocol accepted")
	}
	cfg = base
	cfg.Topo.Clusters = 1
	if _, err := Compose(cfg, models); err == nil {
		t.Error("1-cluster composition accepted")
	}
}

func TestComposeRejectsStructureChange(t *testing.T) {
	base := fastBase()
	models := mustTrainFast(t, 60*sim.Millisecond)
	bad := base
	bad.Topo.RacksPerCluster++ // per-cluster structure change
	bad.Topo.Clusters = 4
	if _, err := Compose(bad, models); err == nil {
		t.Error("structure change accepted — scalable features violated")
	}
}

func TestMimicModelSerialization(t *testing.T) {
	models := mustTrainFast(t, 100*sim.Millisecond)
	blob, err := models.Save()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModels(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Same prediction from both.
	a := newOracleMimic(models, 1, 7)
	b := newOracleMimic(restored, 1, 7)
	info := PacketInfo{LocalRack: 0, LocalServer: 1, SizeBytes: 1500, ArrivalTime: sim.Millisecond}
	oa := a.process(Ingress, info)
	ob := b.process(Ingress, info)
	if oa != ob {
		t.Errorf("restored model diverges: %+v vs %+v", oa, ob)
	}
	if _, err := LoadModels([]byte(`{}`)); err == nil {
		t.Error("incomplete blob accepted")
	}
	if _, err := LoadModels([]byte(`garbage`)); err == nil {
		t.Error("garbage blob accepted")
	}
}

func TestMimicOutcomesBounded(t *testing.T) {
	models := mustTrainFast(t, 150*sim.Millisecond)
	m := newOracleMimic(models, 1, 3)
	rng := stats.NewStream(5)
	lo := models.Ingress.Bounds.Lo
	hi := models.Ingress.Bounds.Hi
	for i := 0; i < 200; i++ {
		info := PacketInfo{
			LocalRack:   rng.Intn(2),
			LocalServer: rng.Intn(4),
			LocalAgg:    rng.Intn(2),
			Core:        rng.Intn(4),
			SizeBytes:   40 + rng.Intn(1460),
			ArrivalTime: sim.Time(i) * 100 * sim.Microsecond,
		}
		out := m.process(Ingress, info)
		if out.Dropped {
			continue
		}
		sec := out.Latency.Seconds()
		if sec < lo-1e-12 || sec > hi+1e-12 {
			t.Fatalf("latency %v outside bounds [%v, %v]", sec, lo, hi)
		}
	}
}

func TestMimicDeterminism(t *testing.T) {
	models := mustTrainFast(t, 100*sim.Millisecond)
	run := func() []outcome {
		m := newOracleMimic(models, 2, 42)
		var outs []outcome
		for i := 0; i < 50; i++ {
			outs = append(outs, m.process(Egress, PacketInfo{
				LocalServer: i % 4, SizeBytes: 1500,
				ArrivalTime: sim.Time(i) * sim.Millisecond,
			}))
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mimic diverged at %d", i)
		}
	}
}

func TestFeederGapScaling(t *testing.T) {
	dm := &DirectionModel{
		Interarrival:   stats.LogNormal{Mu: math.Log(0.001), Sigma: 0.1},
		RatePktsPerSec: 1000,
	}
	// The homogeneous n-cluster composition synthesizes the Mimic-Mimic
	// fraction (n-2)/(n-1) of a Mimic's external traffic.
	gap := func(dm *DirectionModel, r *stats.Stream, n int) sim.Time {
		return feederGapFrac(dm, r, float64(n-2)/float64(n-1))
	}
	rng := stats.NewStream(1)
	if gap(dm, rng, 2) != 0 {
		t.Error("2-cluster composition needs no feeders")
	}
	mean := func(n int) float64 {
		r := stats.NewStream(1)
		var sum float64
		for i := 0; i < 2000; i++ {
			sum += gap(dm, r, n).Seconds()
		}
		return sum / 2000
	}
	m4, m64 := mean(4), mean(64)
	// At larger N the Mimic-Mimic fraction approaches 1, so gaps shrink
	// toward the full measured interarrival.
	if m64 >= m4 {
		t.Errorf("feeder gaps should shrink with N: mean(4)=%v mean(64)=%v", m4, m64)
	}
	// n=4: fraction 2/3 ⇒ mean gap = 1ms / (2/3) = 1.5ms.
	if math.Abs(m4-0.0015) > 0.0003 {
		t.Errorf("mean gap at n=4 = %v, want ~0.0015", m4)
	}
	zero := &DirectionModel{}
	if gap(zero, rng, 8) != 0 {
		t.Error("zero-rate model should disable feeders")
	}
}

func TestComposedFeedersRun(t *testing.T) {
	base := fastBase()
	models := mustTrainFast(t, 150*sim.Millisecond)
	cfg := base
	cfg.Topo = base.Topo.WithClusters(4)
	comp, err := Compose(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	comp.Run(200 * sim.Millisecond)
	if comp.FeederEvents() == 0 {
		t.Error("no feeder events in a 4-cluster composition")
	}
	if comp.InferenceSteps() == 0 {
		t.Error("no LSTM inference steps recorded")
	}
	if comp.FlowsCompleted() == 0 {
		t.Error("no flows completed in composition")
	}
}

func TestDirectionString(t *testing.T) {
	if Ingress.String() != "ingress" || Egress.String() != "egress" {
		t.Error("Direction names wrong")
	}
}

func TestTransportNamesCoveredByComposition(t *testing.T) {
	// Compose must work with every protocol (Figure 14 requires it). We
	// only check construction here; the protocol-comparison benches run
	// the full pipeline.
	base := fastBase()
	models := mustTrainFast(t, 80*sim.Millisecond)
	for _, name := range transport.Names() {
		p, _ := transport.ByName(name)
		cfg := base
		cfg.Protocol = p
		cfg.Topo = base.Topo.WithClusters(3)
		if _, err := Compose(cfg, models); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFeederGapEmpiricalReplay(t *testing.T) {
	dm := &DirectionModel{
		Interarrival:     stats.LogNormal{Mu: math.Log(0.010), Sigma: 0.01},
		GapSamples:       []float64{0.001, 0.001, 0.001},
		UseEmpiricalGaps: true,
		RatePktsPerSec:   100,
	}
	rng := stats.NewStream(1)
	const frac = 2.0 / 3.0 // n=4: (n-2)/(n-1)
	// Empirical gaps are 1ms; the lognormal fit says 10ms. Replay must
	// draw from the samples.
	g := feederGapFrac(dm, rng, frac).Seconds()
	want := 0.001 / frac
	if math.Abs(g-want) > 1e-9 {
		t.Errorf("empirical gap = %v, want %v", g, want)
	}
	dm.UseEmpiricalGaps = false
	g = feederGapFrac(dm, rng, frac).Seconds()
	if math.Abs(g-0.015) > 0.002 {
		t.Errorf("lognormal gap = %v, want ~0.015", g)
	}
	// Empty samples fall back to the parametric fit.
	dm.UseEmpiricalGaps = true
	dm.GapSamples = nil
	if feederGapFrac(dm, rng, frac) == 0 {
		t.Error("empty empirical bank should fall back, not disable")
	}
}
