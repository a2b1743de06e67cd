package core

import (
	"fmt"
	"sync"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
)

var (
	schedOnce   sync.Once
	schedModels *MimicModels
	schedErr    error
)

// trainedForScheduler trains one small model set shared by the
// determinism tests (training dominates their runtime).
func trainedForScheduler(t *testing.T) *MimicModels {
	t.Helper()
	schedOnce.Do(func() { schedModels, schedErr = trainFast(200 * sim.Millisecond) })
	if schedErr != nil {
		t.Fatal(schedErr)
	}
	return schedModels
}

// runComposed runs an n-cluster composition; oracle selects the
// per-request inference oracle (newOracleEngine) instead of the batched
// schedule.
func runComposed(t *testing.T, models *MimicModels, clusters int, oracle bool, until sim.Time) (cluster.Results, *Engine) {
	t.Helper()
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(clusters)
	comp, err := newTestEngine(cfg, composedRoles(clusters), models, oracle)
	if err != nil {
		t.Fatal(err)
	}
	comp.Run(until)
	return comp.Results(), comp
}

func sameResults(t *testing.T, label string, a, b cluster.Results) {
	t.Helper()
	if len(a.FCTByID) != len(b.FCTByID) {
		t.Errorf("%s: FCT count %d vs %d", label, len(a.FCTByID), len(b.FCTByID))
	}
	for id, fct := range a.FCTByID {
		if got, ok := b.FCTByID[id]; !ok {
			t.Errorf("%s: flow %s missing", label, id)
		} else if got != fct {
			t.Errorf("%s: flow %s FCT %v vs %v", label, id, fct, got)
		}
	}
	cmpSlice := func(name string, x, y []float64) {
		if len(x) != len(y) {
			t.Errorf("%s: %s count %d vs %d", label, name, len(x), len(y))
			return
		}
		for i := range x {
			if x[i] != y[i] {
				t.Errorf("%s: %s[%d] = %v vs %v", label, name, i, x[i], y[i])
				return
			}
		}
	}
	cmpSlice("FCTs", a.FCTs, b.FCTs)
	cmpSlice("Throughputs", a.Throughputs, b.Throughputs)
	cmpSlice("RTTs", a.RTTs, b.RTTs)
	if a.Drops != b.Drops {
		t.Errorf("%s: drops %d vs %d", label, a.Drops, b.Drops)
	}
	if a.Packets != b.Packets {
		t.Errorf("%s: packets %d vs %d", label, a.Packets, b.Packets)
	}
}

// TestGoldenDeterminism is the engine's end-to-end correctness witness:
// a seeded 3-cluster composition (3 clusters so feeders are active) must
// produce identical metrics (a) across two batched runs, and (b) between
// the batched engine and the per-request oracle.
func TestGoldenDeterminism(t *testing.T) {
	models := trainedForScheduler(t)
	const until = 300 * sim.Millisecond

	seqRes, seqComp := runComposed(t, models, 3, true, until)
	batRes, batComp := runComposed(t, models, 3, false, until)
	batRes2, batComp2 := runComposed(t, models, 3, false, until)

	if len(seqRes.FCTByID) == 0 {
		t.Fatal("no flows completed; test exercises nothing")
	}
	sameResults(t, "batched-vs-batched", batRes, batRes2)
	sameResults(t, "sequential-vs-batched", seqRes, batRes)

	if seq, bat := seqComp.InferenceSteps(), batComp.InferenceSteps(); seq != bat {
		t.Errorf("inference steps: sequential %d vs batched %d", seq, bat)
	}
	if batComp.InferenceSteps() == 0 {
		t.Error("batched run recorded no inference steps")
	}
	if batComp.sched.BatchedSteps != batComp2.sched.BatchedSteps {
		t.Error("batched runs disagree on scheduler step count")
	}
	s := batComp.sched
	t.Logf("scheduler: window=%v flushes=%d batchedSteps=%d maxBatch=%d",
		s.window, s.Flushes, s.BatchedSteps, s.MaxBatch)
	// The oracle flushes once per request: every flush a one-lane round.
	if o := seqComp.sched; o.MaxBatch != 1 || o.Flushes != o.BatchedSteps {
		t.Errorf("oracle scheduler formed wider rounds: flushes=%d steps=%d maxBatch=%d",
			o.Flushes, o.BatchedSteps, o.MaxBatch)
	}
	// cmd/mimicnet's drop line, as it prints it from MimicDrops(dir).
	const wantDrops = "mimic drops             451 ingress, 1045 egress"
	if got := fmt.Sprintf("mimic drops             %d ingress, %d egress",
		batComp.MimicDrops(Ingress), batComp.MimicDrops(Egress)); got != wantDrops {
		t.Errorf("drop line = %q, want %q", got, wantDrops)
	}
}

// TestFlushSplit runs the split flush at the small shapes the tests
// use, without the poolfloor0 build: every flush is priced far above the
// dispatch floor and stepped through a pool of 1, 2, 3 or 4 workers, so
// with more than one worker a flush's lane groups run on as many
// goroutines. The scheduler keeps min(workers, Mimics) groups. Results
// must equal the per-packet oracle's and, Events included, those of a
// production run at every worker count.
func TestFlushSplit(t *testing.T) {
	models := trainedForScheduler(t)
	const (
		clusters = 4
		until    = 200 * sim.Millisecond
	)
	oracle, _ := runComposed(t, models, clusters, true, until)
	prod, _ := runComposed(t, models, clusters, false, until)
	if len(oracle.FCTByID) == 0 {
		t.Fatal("no flows completed; test exercises nothing")
	}
	sameResults(t, "production-vs-oracle", oracle, prod)
	for _, workers := range []int{1, 2, 3, 4} {
		pool := ml.NewPool(workers)
		t.Cleanup(pool.Close)
		cfg := fastBase()
		cfg.Topo = cfg.Topo.WithClusters(clusters)
		e, err := newEngine(cfg, composedRoles(clusters), models, pool)
		if err != nil {
			t.Fatal(err)
		}
		e.startFeeders()
		s := e.sched
		label := fmt.Sprintf("split-w%d", workers)
		if got, want := len(s.groups), min(workers, clusters-1); got != want {
			t.Errorf("%s: %d lane groups, want %d", label, got, want)
		}
		s.stepCost = [2]int{1 << 30, 1 << 30} // any pending step is over the floor
		e.Run(until)
		res := e.Results()
		if workers > 1 && s.Splits == 0 {
			t.Errorf("%s: none of %d flushes split", label, s.Flushes)
		}
		if workers == 1 && s.Splits != 0 {
			t.Errorf("%s: %d flushes split on a one-worker pool", label, s.Splits)
		}
		t.Logf("%s: %d of %d flushes split", label, s.Splits, s.Flushes)
		sameResults(t, label+"-vs-oracle", oracle, res)
		if got, want := resultsFingerprint(res), resultsFingerprint(prod); got != want {
			t.Errorf("%s: fingerprint %s differs from production run %s", label, got[:16], want[:16])
		}
	}
}

// TestFlushReplayOrder forces the tie that replay's merge decides. The
// groups of a split flush resolve their boundary packets independently,
// and the caller runs the continuations afterwards. Continuations that
// schedule kernel events for one nanosecond leave those events in the
// order they ran, so the replay must be the serial order: direction,
// then round, then lane across groups. The production composition never
// puts two groups' continuations on one nanosecond; here every request
// of one flush schedules its event for the same instant. N = 4 on a
// two-worker pool gives Mimic lanes 0 and 2 to group 0 and lane 1 to
// group 1; lane 0 queues two ingress requests, so a group-major replay
// would run lane 0's second round before lane 1's first.
func TestFlushReplayOrder(t *testing.T) {
	models := trainedForScheduler(t)
	const clusters = 4
	pool := ml.NewPool(2)
	t.Cleanup(pool.Close)
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(clusters)
	e, err := newEngine(cfg, composedRoles(clusters), models, pool)
	if err != nil {
		t.Fatal(err)
	}
	s := e.sched
	if len(s.groups) != 2 {
		t.Fatalf("%d lane groups, want 2", len(s.groups))
	}
	var lanes []*mimic
	for _, cc := range e.clusters {
		if cc.role == roleMimic {
			lanes = append(lanes, cc.mimic)
		}
	}
	k := e.rt.Sim
	const tie = sim.Millisecond
	var ran []string
	request := func(lane int, dir Direction, label string) {
		info := PacketInfo{SizeBytes: 1500, ArrivalTime: k.Now()}
		s.enqueue(lanes[lane].dir(dir), info, nil, func(*netsim.Packet, PacketInfo, outcome) {
			k.At(tie, func() { ran = append(ran, label) })
		})
	}
	// Enqueue order is neither the serial order nor group-major.
	request(1, Egress, "egress r0 l1")
	request(2, Ingress, "ingress r0 l2")
	request(0, Ingress, "ingress r0 l0")
	request(1, Ingress, "ingress r0 l1")
	request(0, Ingress, "ingress r1 l0")
	s.stepCost = [2]int{1 << 30, 1 << 30} // over the floor: the flush splits
	s.Flush()
	if s.Splits != 1 {
		t.Fatalf("the flush did not split (%d splits): both groups ran on one goroutine", s.Splits)
	}
	k.RunUntil(tie)
	want := []string{"ingress r0 l0", "ingress r0 l1", "ingress r0 l2", "ingress r1 l0", "egress r0 l1"}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Errorf("same-instant continuations ran as\n  %q\nwant the serial order\n  %q", ran, want)
	}
}

// TestGoldenDeterminismHybrid repeats the witness for the hybrid
// (Appendix B) harness in both directions.
func TestGoldenDeterminismHybrid(t *testing.T) {
	models := trainedForScheduler(t)
	const until = 250 * sim.Millisecond
	for _, dir := range []Direction{Ingress, Egress} {
		run := func(oracle bool) cluster.Results {
			h, err := newTestEngine(fastBase(), hybridRoles(dir), models, oracle)
			if err != nil {
				t.Fatal(err)
			}
			h.Run(until)
			if h.ModelPackets() == 0 {
				t.Fatalf("%s hybrid served no packets", dir)
			}
			return h.Results()
		}
		sameResults(t, "hybrid-"+dir.String(), run(true), run(false))
	}
}

// TestDefaultBatchWindow pins the causality rule: the window is the
// smaller latency lower bound across the two direction models.
func TestDefaultBatchWindow(t *testing.T) {
	models := trainedForScheduler(t)
	m := models
	lo := m.Ingress.Bounds.Lo
	if m.Egress.Bounds.Lo < lo {
		lo = m.Egress.Bounds.Lo
	}
	want := sim.FromSeconds(lo)
	if lo <= 0 {
		want = 0
	}
	if got := defaultBatchWindow(m); got != want {
		t.Errorf("defaultBatchWindow = %v, want %v", got, want)
	}
	if w := defaultBatchWindow(m); w > 0 {
		maxLat := sim.FromSeconds(lo)
		if w > maxLat {
			t.Errorf("window %v exceeds causality bound %v", w, maxLat)
		}
	}
}
