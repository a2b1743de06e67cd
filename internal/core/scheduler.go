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
// Correctness rests on two invariants:
//
//  1. Per-lane order. A lane's requests are queued FIFO and flushed in
//     rounds (round k takes the k-th pending request of every lane), so
//     each lane sees the exact sequence of feature extractions, RNG
//     draws, and hidden-state updates it would have seen inline. The
//     batched cell kernels are bit-exact with the per-vector path
//     (internal/ml/batch.go), so predictions are identical too.
//  2. Causality. The collection window never exceeds the latency lower
//     bound Lo of either direction model (DefaultBatchWindow), and
//     every predicted latency is clamped to at least Lo — so when a
//     flush at t+window resolves a packet that arrived at t, its
//     delivery time t+latency has not yet passed. Continuations are
//     scheduled at the absolute arrival-time-plus-latency instant,
//     matching the inline path exactly.
//
// The residual divergence risk versus sequential inference is event
// tie-breaking: continuations are inserted into the event queue at
// flush time rather than arrival time, so an unrelated event scheduled
// for the *exact same timestamp* could order differently. Latencies
// are continuous model outputs, making such ties vanishingly rare; the
// golden determinism test (scheduler_test.go) checks end-to-end metric
// equality empirically.
type InferenceScheduler struct {
	sim    *sim.Simulator
	window sim.Time
	models [2]*ml.BatchedStatefulModel // indexed by Direction
	queues [2][][]schedReq             // [direction][lane] FIFO
	pend   int
	armed  bool

	// Flushes counts flush events, BatchedSteps the model steps issued
	// through fused calls, and MaxBatch the largest single fused step.
	Flushes      uint64
	BatchedSteps uint64
	MaxBatch     int

	// flush scratch, reused across rounds; xs holds sub-slices of feat,
	// the round's feature rows back to back
	lanes []int
	feat  []float64
	xs    [][]float64
	want  []bool
	preds []ml.Prediction
	reqs  []*schedReq
}

// schedReq is one deferred model step: a boundary packet awaiting its
// prediction (fn != nil) or a feeder advance (fn == nil).
type schedReq struct {
	d    *dirRuntime
	info PacketInfo
	at   sim.Time
	pkt  *netsim.Packet
	fn   resolveFunc
}

// NewInferenceScheduler builds a scheduler over the shared direction
// models. Lanes are added per Mimic via Mimic.AttachScheduler. The
// worker pool is the process-wide shared pool.
func NewInferenceScheduler(s *sim.Simulator, models *MimicModels, window sim.Time) *InferenceScheduler {
	if window < 0 {
		window = 0
	}
	return &InferenceScheduler{
		sim:    s,
		window: window,
		models: [2]*ml.BatchedStatefulModel{
			Ingress: ml.NewBatchedStatefulModel(models.Ingress.Model, 0, ml.SharedPool()),
			Egress:  ml.NewBatchedStatefulModel(models.Egress.Model, 0, ml.SharedPool()),
		},
	}
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
	lane := is.models[Ingress].AddLane()
	if l2 := is.models[Egress].AddLane(); l2 != lane {
		panic("core: scheduler lane books diverged")
	}
	is.queues[Ingress] = append(is.queues[Ingress], nil)
	is.queues[Egress] = append(is.queues[Egress], nil)
	return lane
}

// laneSteps reports the total model steps executed for one lane across
// both directions (Figure 23 compute accounting).
func (is *InferenceScheduler) laneSteps(lane int) uint64 {
	return is.models[Ingress].LaneSteps[lane] + is.models[Egress].LaneSteps[lane]
}

// enqueue defers one model step — a boundary packet's when fn is set, a
// feeder advance otherwise — and arms the flush event if idle.
func (is *InferenceScheduler) enqueue(lane int, dir Direction, d *dirRuntime, info PacketInfo, pkt *netsim.Packet, fn resolveFunc) {
	is.queues[dir][lane] = append(is.queues[dir][lane], schedReq{
		d: d, info: info, at: is.sim.Now(), pkt: pkt, fn: fn,
	})
	is.pend++
	if !is.armed {
		is.armed = true
		is.sim.Schedule(is.sim.Now()+is.window, flushScheduler, is, 0)
	}
}

func flushScheduler(p any, _ int64) { p.(*InferenceScheduler).flush() }

// Flush services every pending request immediately. Compositions call
// it after RunUntil so tail-end packets receive the same predictions,
// RNG draws, and drop accounting they would have inline.
func (is *InferenceScheduler) Flush() { is.flush() }

func (is *InferenceScheduler) flush() {
	is.armed = false
	if is.pend == 0 {
		return
	}
	is.Flushes++
	obsInferFlushes.Inc()
	for dir := range is.queues {
		q := is.queues[dir]
		// A round steps each lane at most once: sizing the row buffer for
		// that up front means appending never moves rows xs already
		// points into, and no round allocates.
		if need := len(q) * is.models[dir].Model().Cfg.Features; cap(is.feat) < need {
			is.feat = make([]float64, 0, need)
		}
		for round := 0; ; round++ {
			// Round k gathers the k-th pending request of every lane, so
			// per-lane processing order matches arrival order exactly.
			is.lanes, is.xs, is.want = is.lanes[:0], is.xs[:0], is.want[:0]
			is.reqs, is.feat = is.reqs[:0], is.feat[:0]
			for lane := range q {
				if round >= len(q[lane]) {
					continue
				}
				req := &q[lane][round]
				if req.fn == nil {
					// Feeder: the bank draw happens now, in lane round
					// order, preserving the lane's RNG sequence.
					info := req.d.dm.InfoBank[req.d.rng.Intn(len(req.d.dm.InfoBank))]
					info.ArrivalTime = req.at
					req.info = info
				}
				is.lanes = append(is.lanes, lane)
				row := len(is.feat)
				is.feat = req.d.ex.FeaturesAppend(is.feat, req.info)
				is.xs = append(is.xs, is.feat[row:])
				is.want = append(is.want, req.fn != nil)
				is.reqs = append(is.reqs, req)
			}
			if len(is.lanes) == 0 {
				break
			}
			if cap(is.preds) < len(is.lanes) {
				is.preds = make([]ml.Prediction, len(is.lanes))
			}
			is.preds = is.preds[:len(is.lanes)]
			is.models[dir].StepLanes(is.lanes, is.xs, is.want, is.preds)
			is.BatchedSteps += uint64(len(is.lanes))
			obsInferSteps.Add(uint64(len(is.lanes)))
			if len(is.lanes) > is.MaxBatch {
				is.MaxBatch = len(is.lanes)
			}
			for i, req := range is.reqs {
				if req.fn != nil {
					req.fn(req.pkt, req.info, req.d.applyPrediction(req.info, is.preds[i]))
				}
			}
		}
		for lane := range q {
			q[lane] = q[lane][:0] // keep backing arrays across flushes
		}
	}
	is.pend = 0
}
