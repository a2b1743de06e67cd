package core

import (
	"mimicnet/internal/ml"
	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
)

// InferenceScheduler batches Mimic model steps across clusters. Instead
// of running one LSTM step per boundary packet as it arrives, each
// Mimic×direction stream becomes a *lane* of a BatchedStatefulModel
// (all Mimics share the same trained weights, so their steps are one
// fused matrix–matrix product). Requests collected within a short
// simulation window are serviced together by a single flush event.
//
// Correctness rests on three invariants:
//
//  1. Per-lane order. A lane's requests are queued FIFO and flushed in
//     rounds (round k takes the k-th pending request of every lane), so
//     each lane sees the exact sequence of feature extractions, RNG
//     draws, and hidden-state updates it would see with one flush per
//     request (the per-request oracle the determinism tests run). A lane
//     bank step is bit-exact with the per-packet reference step
//     (internal/ml/batch.go), so predictions do not depend on which
//     lanes share a round either.
//  2. Causality. The collection window never exceeds the latency lower
//     bound Lo of either direction model (DefaultBatchWindow), and
//     every predicted latency is clamped to at least Lo — so when a
//     flush at t+window resolves a packet that arrived at t, its
//     delivery time t+latency has not yet passed. Continuations are
//     scheduled at the absolute arrival-time-plus-latency instant,
//     matching the per-request oracle exactly.
//  3. Direction independence (DESIGN.md decision 21). A flush is two
//     tasks, one per direction, which may run at the same time on the
//     ml pool. A task writes only its own direction's state: its
//     dirQueue, its bank, and its lanes' extractors and RNG streams. No
//     task touches the simulator or a packet; each lists its boundary
//     packets' Outcomes, and once both have finished the caller runs
//     the continuations in the serial order — direction, then round,
//     then lane — so every event is scheduled with the sequence number
//     it would have had. A counter a task keeps must stay per direction
//     (or be atomic).
//
// The residual divergence risk versus the per-request oracle is event
// tie-breaking: continuations are inserted into the event queue at
// flush time rather than arrival time, so an unrelated event scheduled
// for the *exact same timestamp* could order differently. Latencies
// are continuous model outputs, making such ties vanishingly rare; the
// golden determinism test (scheduler_test.go) checks end-to-end metric
// equality empirically.
type InferenceScheduler struct {
	sim    *sim.Simulator
	window sim.Time
	pool   *ml.Pool // the flush's fan-out: one item per direction
	dirs   dirTasks // indexed by Direction
	armed  bool

	// perRequest flushes at every enqueue and arms no flush event: each
	// request is a one-lane round whose continuation runs before
	// enqueue returns. It is the oracle the determinism tests compare
	// the batched schedule against, and only package tests set it.
	perRequest bool

	// Flushes counts flush events, Splits those whose two directions
	// stepped on two goroutines, BatchedSteps the model steps issued
	// through fused calls, and MaxBatch the largest single fused step.
	Flushes      uint64
	Splits       uint64
	BatchedSteps uint64
	MaxBatch     int
}

// dirQueue is one direction's half of the scheduler: its lane bank, one
// FIFO of requests per lane, and its flush's scratch and tallies.
type dirQueue struct {
	bank     *ml.BatchedStatefulModel
	queues   [][]schedReq // [lane] FIFO
	pend     int
	stepCost int // one lane step in multiply-add equivalents (StepCost)

	// flush scratch, reused across rounds; xs holds sub-slices of feat,
	// the round's feature rows back to back
	lanes []int
	feat  []float64
	xs    [][]float64
	want  []bool
	preds []ml.Prediction
	reqs  []*schedReq

	// resolved holds the flush's boundary packets and their Outcomes in
	// round-then-lane order, for the caller to continue; steps and
	// maxBatch tally the flush.
	resolved []resolved
	steps    uint64
	maxBatch int
}

// resolved is a boundary packet's request with the Outcome its
// direction's flush task predicted.
type resolved struct {
	req *schedReq
	out Outcome
}

// dirTasks is a flush's Pool.Range task: item d steps direction d.
type dirTasks [2]*dirQueue

func (t *dirTasks) RunRange(lo, hi int) {
	for _, dq := range t[lo:hi] {
		dq.step()
	}
}

// schedReq is one deferred model step: a boundary packet awaiting its
// prediction (fn != nil) or a feeder advance (fn == nil), whose info
// carries only its ArrivalTime until the flush draws its packet.
type schedReq struct {
	d    *dirRuntime
	info PacketInfo
	pkt  *netsim.Packet
	fn   resolveFunc
}

// bankPool runs every lane bank step on its caller: the flush is the
// one fan-out point of a composed run, and its tasks must not call
// Pool.Range on the pool they run on.
var bankPool = ml.NewPool(1)

// NewInferenceScheduler builds a scheduler over the shared direction
// models. Each Mimic built on it adds one lane per direction. Flushes
// split across the process-wide shared pool.
func NewInferenceScheduler(s *sim.Simulator, models *MimicModels, window sim.Time) *InferenceScheduler {
	if window < 0 {
		window = 0
	}
	is := &InferenceScheduler{sim: s, window: window, pool: ml.SharedPool()}
	for dir, dm := range [2]*DirectionModel{Ingress: models.Ingress, Egress: models.Egress} {
		bank := ml.NewBatchedStatefulModel(dm.Model, 0, bankPool)
		is.dirs[dir] = &dirQueue{bank: bank, stepCost: bank.StepCost()}
	}
	return is
}

// DefaultBatchWindow returns the largest collection window that cannot
// violate causality: the smaller of the two directions' latency lower
// bounds (every prediction is clamped to at least that latency, so a
// flush after the window always precedes the earliest delivery).
func DefaultBatchWindow(models *MimicModels) sim.Time {
	lo := models.Ingress.Bounds.Lo
	if models.Egress.Bounds.Lo < lo {
		lo = models.Egress.Bounds.Lo
	}
	if lo <= 0 {
		return 0
	}
	return sim.FromSeconds(lo)
}

// Window reports the collection window.
func (is *InferenceScheduler) Window() sim.Time { return is.window }

// addMimic registers one Mimic: a lane in each direction model plus its
// request queues. Both directions share the lane index.
func (is *InferenceScheduler) addMimic() int {
	lane := is.dirs[Ingress].bank.AddLane()
	if l2 := is.dirs[Egress].bank.AddLane(); l2 != lane {
		panic("core: scheduler lane books diverged")
	}
	for _, dq := range is.dirs {
		dq.queues = append(dq.queues, nil)
	}
	return lane
}

// laneSteps reports the total model steps executed for one lane across
// both directions (Figure 23 compute accounting).
func (is *InferenceScheduler) laneSteps(lane int) uint64 {
	return is.dirs[Ingress].bank.LaneSteps[lane] + is.dirs[Egress].bank.LaneSteps[lane]
}

// enqueue defers one model step — a boundary packet's when fn is set, a
// feeder advance otherwise — and arms the flush event if idle.
func (is *InferenceScheduler) enqueue(lane int, dir Direction, d *dirRuntime, info PacketInfo, pkt *netsim.Packet, fn resolveFunc) {
	dq := is.dirs[dir]
	dq.queues[lane] = append(dq.queues[lane], schedReq{d: d, info: info, pkt: pkt, fn: fn})
	dq.pend++
	if is.perRequest {
		is.flush()
		return
	}
	if !is.armed {
		is.armed = true
		is.sim.Schedule(is.sim.Now()+is.window, flushScheduler, is, 0)
	}
}

func flushScheduler(p any, _ int64) { p.(*InferenceScheduler).flush() }

// Flush services every pending request immediately. Compositions call
// it after RunUntil so tail-end packets receive their predictions, RNG
// draws, and drop accounting.
func (is *InferenceScheduler) Flush() { is.flush() }

func (is *InferenceScheduler) flush() {
	is.armed = false
	in, eg := is.dirs[Ingress], is.dirs[Egress]
	if in.pend+eg.pend == 0 {
		return
	}
	is.Flushes++
	// A second goroutine can take at most the smaller direction off the
	// caller, so that is the work the split is priced by.
	cost := min(in.pend*in.stepCost, eg.pend*eg.stepCost)
	if is.pool.Range(len(is.dirs), cost, &is.dirs) > 1 {
		is.Splits++
		obsInferFlushesSplit.Inc()
	} else {
		obsInferFlushesInline.Inc()
	}
	for _, dq := range is.dirs {
		for _, r := range dq.resolved {
			r.req.fn(r.req.pkt, r.req.info, r.out)
		}
		is.BatchedSteps += dq.steps
		obsInferSteps.Add(dq.steps)
		is.MaxBatch = max(is.MaxBatch, dq.maxBatch)
		for lane := range dq.queues {
			dq.queues[lane] = dq.queues[lane][:0] // keep backing arrays across flushes
		}
		dq.pend, dq.resolved, dq.steps, dq.maxBatch = 0, dq.resolved[:0], 0, 0
	}
}

// step is one direction's share of a flush: it forms the rounds, draws
// the feeders' packets, builds the feature rows, steps the bank and
// turns each boundary packet's prediction into its Outcome.
func (dq *dirQueue) step() {
	q := dq.queues
	// A round steps each lane at most once: sizing the row buffer for
	// that up front means appending never moves rows xs already points
	// into, and no round allocates.
	if need := len(q) * dq.bank.Model().Cfg.Features; cap(dq.feat) < need {
		dq.feat = make([]float64, 0, need)
	}
	for round := 0; ; round++ {
		// Round k gathers the k-th pending request of every lane, so
		// per-lane processing order matches arrival order exactly.
		dq.lanes, dq.xs, dq.want = dq.lanes[:0], dq.xs[:0], dq.want[:0]
		dq.reqs, dq.feat = dq.reqs[:0], dq.feat[:0]
		for lane := range q {
			if round >= len(q[lane]) {
				continue
			}
			req := &q[lane][round]
			if req.fn == nil {
				// Feeder: the bank draw happens now, in lane round
				// order, preserving the lane's RNG sequence.
				info := req.d.dm.InfoBank[req.d.rng.Intn(len(req.d.dm.InfoBank))]
				info.ArrivalTime = req.info.ArrivalTime
				req.info = info
			}
			dq.lanes = append(dq.lanes, lane)
			row := len(dq.feat)
			dq.feat = req.d.ex.FeaturesAppend(dq.feat, req.info)
			dq.xs = append(dq.xs, dq.feat[row:])
			dq.want = append(dq.want, req.fn != nil)
			dq.reqs = append(dq.reqs, req)
		}
		if len(dq.lanes) == 0 {
			return
		}
		if cap(dq.preds) < len(dq.lanes) {
			dq.preds = make([]ml.Prediction, len(dq.lanes))
		}
		dq.preds = dq.preds[:len(dq.lanes)]
		dq.bank.StepLanes(dq.lanes, dq.xs, dq.want, dq.preds)
		dq.steps += uint64(len(dq.lanes))
		dq.maxBatch = max(dq.maxBatch, len(dq.lanes))
		for i, req := range dq.reqs {
			if req.fn != nil {
				dq.resolved = append(dq.resolved, resolved{req, req.d.applyPrediction(req.info, dq.preds[i])})
			}
		}
	}
}
