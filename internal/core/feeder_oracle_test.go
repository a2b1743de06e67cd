package core

import (
	"fmt"
	"math"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
)

// This file holds the feeder oracle: the schedule production ran before
// feeders moved into the inference flush (DESIGN.md decision 29). Each
// feeder is a chain of kernel events, one per arrival; an event counts
// itself, enqueues a feeder step on its lane (a direction with an empty
// InfoBank steps nothing) and schedules the next arrival. Production
// must reproduce it bit for bit, Events included, because it counts one
// event per feeder advance and admits into each flush exactly the
// arrivals whose events ran before the flush event.

// eventFeeder is one Mimic direction's feeder as kernel events. joins
// and defers count the arrivals that fell on the instant of a flush
// event: those that ran before it (and joined it) and those that ran
// after it.
type eventFeeder struct {
	s             *sim.Simulator
	is            *inferenceScheduler
	d             *dirRuntime
	rng           *stats.Stream
	frac          float64
	last          *sim.Time // when its scheduler's flush timer last fired
	fired         uint64
	joins, defers int
}

// feederOracle is an engine's event feeders.
type feederOracle []*eventFeeder

// events is the oracle's FeederEvents: every arrival that fired.
func (o feederOracle) events() uint64 {
	var n uint64
	for _, f := range o {
		n += f.fired
	}
	return n
}

// ties totals the arrivals on a flush instant, before and after it.
func (o feederOracle) ties() (joins, defers int) {
	for _, f := range o {
		joins += f.joins
		defers += f.defers
	}
	return joins, defers
}

func (f *eventFeeder) schedule() {
	gap := feederGapFrac(f.d.dm, f.rng, f.frac)
	if gap <= 0 {
		return
	}
	f.s.Schedule(f.s.Now()+gap, eventFeederFired, f, 0)
}

func eventFeederFired(p any, _ int64) {
	f := p.(*eventFeeder)
	now := f.s.Now()
	f.fired++
	switch {
	case f.is.timer.Armed() && f.is.due == now:
		f.joins++
	case *f.last == now:
		f.defers++
	}
	if len(f.d.dm.InfoBank) > 0 {
		f.is.enqueue(f.d, PacketInfo{ArrivalTime: now}, nil, nil)
	}
	f.schedule()
}

// newFeederOracle builds an engine whose feeders are kernel events, in
// the order startEngine starts its own; perRequest also flushes every
// request as it arrives (newOracleEngine).
func newFeederOracle(cfg cluster.Config, roles []roleKind, models *MimicModels, perRequest bool) (*Engine, feederOracle, error) {
	e, err := newEngine(cfg, roles, models, ml.SharedPool())
	if err != nil {
		return nil, nil, err
	}
	var o feederOracle
	last := sim.Time(-1)
	if s := e.sched; s != nil {
		s.perRequest = perRequest
		k := s.sim
		s.timer.Init(k, func(p any, n int64) {
			last = k.Now()
			flushTimer(p, n)
		}, s, 0)
	}
	frac := e.feederFrac()
	if frac <= 0 {
		return e, o, nil
	}
	for idx, cc := range e.clusters {
		if cc.role != roleMimic {
			continue
		}
		for _, dir := range []Direction{Ingress, Egress} {
			f := &eventFeeder{
				s: e.rt.Sim, is: cc.mimic.sched, d: cc.mimic.dir(dir),
				rng: e.feederStream(idx, dir), frac: frac, last: &last,
			}
			o = append(o, f)
			f.schedule()
		}
	}
	return e, o, nil
}

// checkFeederParity runs the production engine and the feeder oracle on
// one configuration and requires equal Results fingerprints (Events
// included), FeederEvents, InferenceSteps and MimicDrops. It returns
// the oracle and the production run's same-lane tie count.
func checkFeederParity(t *testing.T, label string, cfg cluster.Config, models *MimicModels, until sim.Time) (feederOracle, uint64) {
	t.Helper()
	roles := composedRoles(cfg.Topo.Clusters)
	prod, err := startEngine(cfg, roles, models)
	if err != nil {
		t.Fatal(err)
	}
	orc, o, err := newFeederOracle(cfg, roles, models, false)
	if err != nil {
		t.Fatal(err)
	}
	prod.Run(until)
	orc.Run(until)
	pr, or := prod.Results(), orc.Results()
	if len(pr.FCTByID) == 0 || o.events() == 0 {
		t.Fatalf("%s: %d flows and %d feeder events: the case exercises nothing", label, len(pr.FCTByID), o.events())
	}
	if got, want := resultsFingerprint(pr), resultsFingerprint(or); got != want {
		t.Errorf("%s: fingerprint %.16s != oracle %.16s (events %d vs %d)", label, got, want, pr.Events, or.Events)
		sameResults(t, label, or, pr)
	}
	if got, want := prod.FeederEvents(), o.events(); got != want {
		t.Errorf("%s: FeederEvents %d, oracle %d", label, got, want)
	}
	if got, want := prod.InferenceSteps(), orc.InferenceSteps(); got != want {
		t.Errorf("%s: InferenceSteps %d, oracle %d", label, got, want)
	}
	for _, dir := range []Direction{Ingress, Egress} {
		if got, want := prod.MimicDrops(dir), orc.MimicDrops(dir); got != want {
			t.Errorf("%s: %s MimicDrops %d, oracle %d", label, dir, got, want)
		}
	}
	return o, prod.sched.SameLaneTies
}

// exactGap returns the gap sample feederGapFrac turns into exactly d at
// feeder fraction frac.
func exactGap(t *testing.T, d sim.Time, frac float64) float64 {
	t.Helper()
	s := d.Seconds() * frac
	for i := 0; i < 64; i++ {
		switch got := sim.FromSeconds(s / frac); {
		case got < d:
			s = math.Nextafter(s, math.Inf(1))
		case got > d:
			s = math.Nextafter(s, math.Inf(-1))
		default:
			return s
		}
	}
	t.Fatalf("no gap sample gives %v at fraction %v", d, frac)
	return 0
}

// tiedGapModels returns models whose feeders replay gaps of one, two
// and half a flush window, so arrivals keep landing exactly on flush
// instants: both on ones their predecessor armed (they run after the
// flush) and on ones another lane armed (they run before it).
func tiedGapModels(t *testing.T, models *MimicModels, cfg cluster.Config) *MimicModels {
	t.Helper()
	probe, err := startEngine(cfg, composedRoles(cfg.Topo.Clusters), models)
	if err != nil {
		t.Fatal(err)
	}
	w, frac := probe.sched.window, probe.feederFrac()
	if w < 2 || frac <= 0 {
		t.Fatalf("window %v, feeder fraction %v: no flush tie to force", w, frac)
	}
	m := *models
	for _, dm := range []**DirectionModel{&m.Ingress, &m.Egress} {
		c := **dm
		c.UseEmpiricalGaps = true
		c.GapSamples = []float64{exactGap(t, w, frac), exactGap(t, 2*w, frac), exactGap(t, w/2, frac)}
		*dm = &c
	}
	return &m
}

// TestFeederOracleParity is the feeder move's witness: over N ∈ {3, 4,
// 8, 16} × three seeds, production equals the feeder oracle on the Results fingerprint, FeederEvents,
// InferenceSteps and MimicDrops. The forced case puts feeder arrivals
// exactly on flush instants, where the tie rule (feeder.due) decides
// which flush takes them.
func TestFeederOracleParity(t *testing.T) {
	models := trainedForScheduler(t)
	const until = 100 * sim.Millisecond
	var ties uint64
	var joins, defers int
	for _, n := range []int{3, 4, 8, 16} {
		for _, seed := range []int64{1, 2, 3} {
			cfg := fastBase()
			cfg.Topo = cfg.Topo.WithClusters(n)
			cfg.Workload.Seed = seed
			o, tie := checkFeederParity(t, fmt.Sprintf("n%d/seed%d", n, seed), cfg, models, until)
			j, d := o.ties()
			ties += tie
			joins += j
			defers += d
		}
	}
	t.Logf("natural ties over the parity runs: %d same-lane, %d feeder arrivals on a flush instant before it, %d after it",
		ties, joins, defers)

	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)
	o, tie := checkFeederParity(t, "forced-ties", cfg, tiedGapModels(t, models, cfg), until)
	joins, defers = o.ties()
	if joins == 0 || defers == 0 {
		t.Errorf("forced-ties: %d arrivals ran before a flush at their instant and %d after: a tie side is untested",
			joins, defers)
	}
	t.Logf("forced-ties: %d same-lane ties, %d flush-instant arrivals before the flush, %d after", tie, joins, defers)
}

// TestFeederEmptyBank pins that a direction with an empty InfoBank runs
// no feeder: FeederEvents counts only the other direction's steps, and
// the distributions equal the oracle's, whose empty direction still runs
// a chain of events that step nothing (the feeder streams are separate,
// so nothing else moves). Events differ by exactly those events.
func TestFeederEmptyBank(t *testing.T) {
	trained := trainedForScheduler(t)
	models := *trained
	eg := *trained.Egress
	eg.InfoBank = nil
	models.Egress = &eg
	const until = 150 * sim.Millisecond
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)
	prod, err := startEngine(cfg, composedRoles(4), &models)
	if err != nil {
		t.Fatal(err)
	}
	orc, o, err := newFeederOracle(cfg, composedRoles(4), &models, false)
	if err != nil {
		t.Fatal(err)
	}
	prod.Run(until)
	orc.Run(until)
	var stepped, idle uint64
	for _, f := range o {
		if f.d.dir == Ingress {
			stepped += f.fired
		} else {
			idle += f.fired
		}
	}
	if stepped == 0 || idle == 0 {
		t.Fatalf("oracle fired %d ingress and %d egress feeder events: nothing to compare", stepped, idle)
	}
	for i, cc := range prod.clusters {
		if cc.mimic != nil && cc.mimic.eg.feed.steps != 0 {
			t.Errorf("cluster %d: empty egress bank took %d feeder steps", i, cc.mimic.eg.feed.steps)
		}
	}
	if got := prod.FeederEvents(); got != stepped {
		t.Errorf("FeederEvents %d, want the ingress feeders' %d steps", got, stepped)
	}
	pr, or := prod.Results(), orc.Results()
	sameResults(t, "empty-egress-bank", or, pr)
	if pr.Events+idle != or.Events {
		t.Errorf("Events %d + %d idle oracle feeder events != oracle's %d", pr.Events, idle, or.Events)
	}
	if got, want := prod.InferenceSteps(), orc.InferenceSteps(); got != want {
		t.Errorf("InferenceSteps %d, oracle %d", got, want)
	}
}

// TestProgressCountsFeeders pins that Progress counts events as Results
// does: on a 4-cluster composition the count is monotone, never below
// the kernel's, above it once feeders have run, and at most the final
// Results().Events.
func TestProgressCountsFeeders(t *testing.T) {
	models := trainedForScheduler(t)
	const until = 150 * sim.Millisecond
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(4)
	e, err := startEngine(cfg, composedRoles(4), models)
	if err != nil {
		t.Fatal(err)
	}
	var last, lastKernel uint64
	ticks := 0
	e.Progress = func(_ sim.Time, events uint64) {
		ticks++
		k := e.rt.Sim.Processed()
		if events < last {
			t.Errorf("progress went back from %d to %d events", last, events)
		}
		if events < k {
			t.Errorf("progress %d events, below the kernel's %d", events, k)
		}
		last, lastKernel = events, k
	}
	e.Run(until)
	res := e.Results()
	if ticks == 0 || last <= lastKernel {
		t.Errorf("%d ticks, last %d events vs %d kernel events: feeder advances not counted",
			ticks, last, lastKernel)
	}
	if last > res.Events {
		t.Errorf("progress reached %d events, Results has %d", last, res.Events)
	}
}
