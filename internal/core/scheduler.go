package core

import (
	"math"

	"mimicnet/internal/ml"
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
)

// inferenceScheduler batches Mimic model steps across clusters. Instead
// of running one LSTM step per boundary packet as it arrives, each
// Mimic×direction stream becomes a *lane* of a BatchedStatefulModel
// (all Mimics share the same trained weights, so their steps are one
// fused matrix–matrix product). Requests collected within a short
// simulation window are serviced together by a single flush event, and
// so are the lanes' feeder arrivals, which never enter the event queue.
//
// Correctness rests on four invariants:
//
//  1. Per-lane order. A lane's requests are queued FIFO, its due feeder
//     arrivals are merged in by arrival time, and the lane is flushed in
//     rounds (round k takes the k-th pending step of every lane), so
//     each lane sees the exact sequence of feature extractions, RNG
//     draws, and hidden-state updates it would see with one flush per
//     request (the per-request oracle the determinism tests run). A lane
//     bank step is bit-exact with the per-packet reference step
//     (internal/ml/batch.go), so predictions do not depend on which
//     lanes share a round either.
//  2. Causality. The collection window never exceeds the latency lower
//     bound Lo of either direction model (defaultBatchWindow), and
//     every predicted latency is clamped to at least Lo — so when a
//     flush at t+window resolves a packet that arrived at t, its
//     delivery time t+latency has not yet passed. Continuations are
//     scheduled at the absolute arrival-time-plus-latency instant,
//     matching the per-request oracle exactly.
//  3. The flush instants of feeders as kernel events (DESIGN.md
//     decision 29). A flush runs at (earliest unconsumed feeder
//     arrival, or first real arrival after idle) + window, and admits
//     the feeder arrivals the event queue would have run before it
//     (feeder.due). The kernel counted one event per feeder advance,
//     so Events adds the advances taken.
//  4. Group independence (decision 29, after decision 21). Mimic i's
//     two lanes belong to group i mod G, G = min(pool workers, Mimics),
//     and a flush is one pool task per group, which may run at the same
//     time as the others. A task writes only its own group's state: its
//     two dirQueues, their banks, and its lanes' queues, extractors,
//     RNG streams and feeders. No task touches the simulator or a
//     packet; each lists its boundary packets' Outcomes, and once all
//     have finished the caller runs the continuations in the serial
//     order — direction, then round, then lane across groups — so every
//     event is scheduled with the sequence number it would have had. A
//     counter a task keeps must stay per group (or be atomic).
//
// The residual divergence risk versus the per-request oracle is event
// tie-breaking: continuations are inserted into the event queue at
// flush time rather than arrival time, so an unrelated event scheduled
// for the *exact same timestamp* could order differently. Latencies
// are continuous model outputs, making such ties vanishingly rare; the
// golden determinism test (scheduler_test.go) checks end-to-end metric
// equality empirically. A real request and a feeder arrival on one lane
// in one nanosecond are a named tie class (SameLaneTies).
type inferenceScheduler struct {
	sim    *sim.Simulator
	window sim.Time
	pool   *ml.Pool     // the flush's fan-out: one item per group
	models [2]*ml.Model // indexed by Direction
	groups []*laneGroup
	task   flushTask
	pos    []int // replay cursor per group
	lanes  int   // Mimics registered

	timer sim.Timer
	due   sim.Time // the instant the timer is armed for
	next  sim.Time // earliest unconsumed feeder arrival of any lane

	// pend counts the real requests queued since the last flush and fed
	// the feeder arrivals the last flush admitted, by direction; with
	// stepCost they price the next flush.
	pend, fed [2]int
	stepCost  [2]int // one lane step in multiply-add equivalents (StepCost)

	// perRequest flushes at every enqueue and arms no flush event: each
	// request is a one-lane round whose continuation runs before
	// enqueue returns. It is the oracle the determinism tests compare
	// the batched schedule against, and only package tests set it.
	perRequest bool

	// Flushes counts flush events, Splits those whose groups stepped on
	// more than one goroutine, BatchedSteps the model steps issued
	// through fused calls, and MaxBatch the largest single fused step.
	// SameLaneTies counts feeder arrivals merged onto the nanosecond of
	// a queued real request on their lane; the feeder goes first.
	Flushes      uint64
	Splits       uint64
	BatchedSteps uint64
	MaxBatch     int
	SameLaneTies uint64
}

// never is the feeder time of a lane that runs no feeder.
const never = sim.Time(math.MaxInt64)

// laneGroup is one flush task's share of the Mimics: their ingress and
// egress lanes, indexed by Direction.
type laneGroup [2]dirQueue

// dirQueue is one direction's half of a lane group: its lane bank, its
// lanes (each keeps its own request FIFO and feeder), and its flush's
// scratch and tallies.
type dirQueue struct {
	bank  *ml.BatchedStatefulModel
	lanes []*dirRuntime // [bank lane]

	// flush scratch, reused across rounds; xs holds sub-slices of feat,
	// the round's feature rows back to back
	idx   []int
	feat  []float64
	xs    [][]float64
	want  []bool
	preds []ml.Prediction
	reqs  []*schedReq

	// resolved holds the flush's boundary packets and their Outcomes in
	// round-then-lane order, for the caller to continue; steps and
	// maxBatch tally the flush, fed and ties its feeder admissions, and
	// next is the earliest feeder arrival it left unconsumed.
	resolved []resolved
	steps    uint64
	maxBatch int
	fed      int
	ties     int
	next     sim.Time
}

// resolved is a boundary packet's request with the outcome its group's
// flush task predicted, and its replay key: round, then lane.
type resolved struct {
	req *schedReq
	out outcome
	key uint64
}

// flushTask is a flush's Pool.Range task: item g steps both directions
// of group g for a flush at instant at, armed at armAt.
type flushTask struct {
	groups    []*laneGroup
	at, armAt sim.Time
}

func (t *flushTask) RunRange(lo, hi int) {
	for _, g := range t.groups[lo:hi] {
		for dir := range g {
			g[dir].step(t.at, t.armAt)
		}
	}
}

// schedReq is one deferred model step: a boundary packet awaiting its
// prediction (fn != nil) or a feeder advance (fn == nil), whose info
// carries only its ArrivalTime until the flush draws its packet.
type schedReq struct {
	info PacketInfo
	pkt  *netsim.Packet
	fn   resolveFunc
}

// bankPool runs every lane bank step on its caller: the flush is the
// one fan-out point of a composed run, and its tasks must not call
// Pool.Range on the pool they run on.
var bankPool = ml.NewPool(1)

// newInferenceScheduler builds a scheduler over the shared direction
// models. Each Mimic built on it adds one lane per direction, to one of
// up to pool.Workers() lane groups; flushes split across pool by group.
func newInferenceScheduler(s *sim.Simulator, models *MimicModels, window sim.Time, pool *ml.Pool) *inferenceScheduler {
	if window < 0 {
		window = 0
	}
	is := &inferenceScheduler{
		sim: s, window: window, pool: pool, next: never,
		models: [2]*ml.Model{Ingress: models.Ingress.Model, Egress: models.Egress.Model},
	}
	is.timer.Init(s, flushTimer, is, 0)
	is.addGroup()
	for dir := range is.stepCost {
		is.stepCost[dir] = is.groups[0][dir].bank.StepCost()
	}
	return is
}

// addGroup appends an empty lane group with a bank per direction.
func (is *inferenceScheduler) addGroup() {
	g := new(laneGroup)
	for dir, m := range is.models {
		g[dir].bank = ml.NewBatchedStatefulModel(m, 0, bankPool)
	}
	is.groups = append(is.groups, g)
	is.task.groups = is.groups
	is.pos = append(is.pos, 0)
}

// defaultBatchWindow returns the largest collection window that cannot
// violate causality: the smaller of the two directions' latency lower
// bounds (every prediction is clamped to at least that latency, so a
// flush after the window always precedes the earliest delivery).
func defaultBatchWindow(models *MimicModels) sim.Time {
	lo := models.Ingress.Bounds.Lo
	if models.Egress.Bounds.Lo < lo {
		lo = models.Egress.Bounds.Lo
	}
	if lo <= 0 {
		return 0
	}
	return sim.FromSeconds(lo)
}

// addMimic registers one Mimic's two directions as lanes of group
// i mod pool.Workers(), where i counts the Mimics registered before it,
// so the scheduler keeps min(workers, Mimics) groups.
func (is *inferenceScheduler) addMimic(dirs [2]*dirRuntime) {
	lane := is.lanes
	is.lanes++
	gi := lane % is.pool.Workers()
	if gi == len(is.groups) {
		is.addGroup()
	}
	g := is.groups[gi]
	for dir, d := range dirs {
		dq := &g[dir]
		d.lane, d.bank, d.bankLane = lane, dq.bank, dq.bank.AddLane()
		dq.lanes = append(dq.lanes, d)
	}
}

// armFeeders arms the first flush of the lanes' feeders once they have
// started.
func (is *inferenceScheduler) armFeeders() {
	for _, g := range is.groups {
		for dir := range g {
			for _, d := range g[dir].lanes {
				is.next = min(is.next, d.feed.next)
			}
		}
	}
	if is.next != never {
		is.arm(is.next + is.window)
	}
}

// arm makes sure a flush runs at or before instant at. A flush armed for
// a later instant is moved up; one armed for an earlier or equal instant
// stays.
func (is *inferenceScheduler) arm(at sim.Time) {
	if is.timer.Armed() && is.due <= at {
		return
	}
	is.due = at
	is.timer.Reset(at - is.sim.Now())
}

// enqueue defers one model step on lane d — a boundary packet's when fn
// is set, a feeder advance otherwise — and arms a flush one window on
// unless one is armed sooner.
func (is *inferenceScheduler) enqueue(d *dirRuntime, info PacketInfo, pkt *netsim.Packet, fn resolveFunc) {
	d.q = append(d.q, schedReq{info: info, pkt: pkt, fn: fn})
	is.pend[d.dir]++
	now := is.sim.Now()
	if is.perRequest {
		is.flush(now, now)
		return
	}
	is.arm(now + is.window)
}

// flushTimer is the flush event: it was armed one window before it runs.
func flushTimer(p any, _ int64) {
	is := p.(*inferenceScheduler)
	now := is.sim.Now()
	is.flush(now, now-is.window)
}

// Flush services every pending request and every feeder arrival up to
// the current time immediately. Compositions call it after RunUntil so
// tail-end packets receive their predictions, RNG draws, and drop
// accounting.
func (is *inferenceScheduler) Flush() { is.flush(is.sim.Now(), never) }

// flush steps everything due at instant at — every queued request and
// the feeder arrivals feeder.due admits for a flush armed at armAt —
// then runs the boundary packets' continuations and arms the flush of
// the next feeder arrival.
func (is *inferenceScheduler) flush(at, armAt sim.Time) {
	if is.pend[Ingress]+is.pend[Egress] == 0 && is.next > at {
		return
	}
	is.timer.Stop()
	is.Flushes++
	// Groups are alike in size, so each item is priced at the mean
	// group's share: this flush's real requests plus as many feeder
	// arrivals as the last flush admitted.
	work := 0
	for dir, c := range is.stepCost {
		work += (is.pend[dir] + is.fed[dir]) * c
	}
	is.task.at, is.task.armAt = at, armAt
	if is.pool.Range(len(is.groups), work/len(is.groups), &is.task) > 1 {
		is.Splits++
		obsInferFlushesSplit.Inc()
	} else {
		obsInferFlushesInline.Inc()
	}
	is.replay(Ingress)
	is.replay(Egress)
	is.pend, is.fed, is.next = [2]int{}, [2]int{}, never
	for _, g := range is.groups {
		for dir := range g {
			dq := &g[dir]
			is.BatchedSteps += dq.steps
			obsInferSteps.Add(dq.steps)
			is.MaxBatch = max(is.MaxBatch, dq.maxBatch)
			is.SameLaneTies += uint64(dq.ties)
			is.fed[dir] += dq.fed
			is.next = min(is.next, dq.next)
			for _, d := range dq.lanes {
				d.q = d.q[:0] // keep backing arrays across flushes
			}
			dq.resolved, dq.steps, dq.maxBatch, dq.fed, dq.ties = dq.resolved[:0], 0, 0, 0, 0
		}
	}
	if is.next != never {
		is.arm(is.next + is.window)
	}
}

// replay runs one direction's continuations in the serial order: the
// groups' resolved lists, each in round-then-lane order, merged by key.
func (is *inferenceScheduler) replay(dir Direction) {
	pos := is.pos
	for {
		best, key := -1, uint64(0)
		for g, grp := range is.groups {
			rs := grp[dir].resolved
			if pos[g] < len(rs) && (best < 0 || rs[pos[g]].key < key) {
				best, key = g, rs[pos[g]].key
			}
		}
		if best < 0 {
			break
		}
		r := &is.groups[best][dir].resolved[pos[best]]
		pos[best]++
		r.req.fn(r.req.pkt, r.req.info, r.out)
	}
	clear(pos)
}

// step is one direction's share of a group's flush: it forms the rounds,
// taking each lane's queued requests and due feeder arrivals in arrival
// order, draws the feeders' packets and gaps, builds the feature rows,
// steps the bank and turns each boundary packet's prediction into its
// outcome.
func (dq *dirQueue) step(at, armAt sim.Time) {
	// A round steps each lane at most once: sizing the row buffer for
	// that up front means appending never moves rows xs already points
	// into, and no round allocates.
	if need := len(dq.lanes) * dq.bank.Model().Cfg.Features; cap(dq.feat) < need {
		dq.feat = make([]float64, 0, need)
	}
	for _, d := range dq.lanes {
		d.pos, d.took = 0, false
	}
	for round := 0; ; round++ {
		// Round k gathers the k-th pending step of every lane, so
		// per-lane processing order matches arrival order exactly.
		dq.idx, dq.xs, dq.want = dq.idx[:0], dq.xs[:0], dq.want[:0]
		dq.reqs, dq.feat = dq.reqs[:0], dq.feat[:0]
		for lane, d := range dq.lanes {
			req, info, ok := dq.nextStep(d, at, armAt)
			if !ok {
				continue
			}
			dq.idx = append(dq.idx, lane)
			row := len(dq.feat)
			dq.feat = d.ex.FeaturesAppend(dq.feat, info)
			dq.xs = append(dq.xs, dq.feat[row:])
			dq.want = append(dq.want, req != nil && req.fn != nil)
			dq.reqs = append(dq.reqs, req)
		}
		if len(dq.idx) == 0 {
			break
		}
		if cap(dq.preds) < len(dq.idx) {
			dq.preds = make([]ml.Prediction, len(dq.idx))
		}
		dq.preds = dq.preds[:len(dq.idx)]
		dq.bank.StepLanes(dq.idx, dq.xs, dq.want, dq.preds)
		dq.steps += uint64(len(dq.idx))
		dq.maxBatch = max(dq.maxBatch, len(dq.idx))
		for i, req := range dq.reqs {
			if dq.want[i] {
				d := dq.lanes[dq.idx[i]]
				key := uint64(round)<<32 | uint64(d.lane)
				dq.resolved = append(dq.resolved, resolved{req, d.applyPrediction(req.info, dq.preds[i]), key})
			}
		}
	}
	dq.next = never
	for _, d := range dq.lanes {
		dq.next = min(dq.next, d.feed.next)
	}
}

// nextStep takes lane d's next step in a flush at instant at, armed at
// armAt: its next queued request, or (req nil) its next feeder arrival
// if that is due and no later than the request. A real request and a
// feeder arrival in one nanosecond were ordered by kernel sequence
// numbers the scheduler cannot see; the feeder goes first, and the tie
// is counted. A feeder step draws its packet from the InfoBank and the
// gap past it; a queued feeder advance (fn nil, enqueued by a test
// oracle) draws its packet only.
func (dq *dirQueue) nextStep(d *dirRuntime, at, armAt sim.Time) (req *schedReq, info PacketInfo, ok bool) {
	f := &d.feed
	if f.due(at, armAt, d.took) && (d.pos == len(d.q) || f.next <= d.q[d.pos].info.ArrivalTime) {
		dq.fed++
		if d.pos < len(d.q) && f.next == d.q[d.pos].info.ArrivalTime {
			dq.ties++
		}
		info = d.dm.InfoBank[d.rng.Intn(len(d.dm.InfoBank))]
		info.ArrivalTime = f.next
		f.advance(d.dm)
		f.steps++
		d.took = true
		return nil, info, true
	}
	if d.pos == len(d.q) {
		return nil, info, false
	}
	req = &d.q[d.pos]
	d.pos++
	if req.fn == nil {
		// The bank draw happens now, in lane round order, preserving
		// the lane's RNG sequence.
		info := d.dm.InfoBank[d.rng.Intn(len(d.dm.InfoBank))]
		info.ArrivalTime = req.info.ArrivalTime
		req.info = info
	}
	return req, req.info, true
}
