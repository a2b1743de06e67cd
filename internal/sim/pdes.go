package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mimicnet/internal/obs"
)

// This file implements conservative parallel discrete-event simulation
// (PDES) in the style of Fujimoto's logical processes. The simulated
// network is partitioned into LPs, each with its own event queue.
// Consistency demands that an LP cannot execute events at time t until no
// other LP can still send it events before t, so execution proceeds in
// lock-step windows of length equal to the global lookahead (the minimum
// cross-LP link latency).
//
// Determinism is part of the contract, not an accident: remote events are
// delivered in (time, source LP, per-source sequence) order at fixed
// window boundaries, so a sharded run schedules exactly the same events
// in exactly the same relative order regardless of how many worker
// threads execute the LPs. Figure 2's sharded full-fidelity rows, the
// runner's one product caller, rely on it: their results do not depend
// on the worker count (cluster.TestShardedFullFidelityTieClass).
//
// The structure also prices MimicNet's Figure 2 question — does
// parallelizing a tightly coupled data center simulation help? — in
// barriers: a small lookahead means many windows, and each window costs
// one synchronization round however little work it holds. Figure 2
// (internal/experiments) measures it by running a full-fidelity fabric
// sharded one LP per cluster on this runner.

// LP is one logical process of a parallel simulation. Its Simulator must
// only be touched by the LP itself once Parallel.Run starts, except via
// Send.
type LP struct {
	ID  int
	Sim *Simulator

	par *Parallel

	// sendSeq numbers this LP's outgoing remote events. It is only
	// touched by the LP's own execution, so no synchronization is
	// needed; together with the source ID it gives every remote event a
	// deterministic total order independent of worker scheduling.
	sendSeq uint64

	mu      sync.Mutex
	inbox   []remoteEvent
	scratch []remoteEvent // drained double-buffer, reused every window
}

// remoteEvent is an event in transit between LPs, with the same
// (handler, pointer, integer) payload as a local Event.
type remoteEvent struct {
	at  Time
	src int32
	seq uint64
	h   Handler
	p   any
	n   int64
}

// remoteOrder is the deterministic delivery order of remote events.
func remoteOrder(a, b remoteEvent) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.src != b.src:
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.seq, b.seq)
}

// Send schedules the typed event h(p, n) (see Simulator.Schedule) on the
// destination LP at absolute time at. It is safe to call from the
// sending LP during Parallel.Run, provided at is at least one lookahead
// window in the future (the caller's link latency guarantees this in a
// correctly partitioned model).
func (lp *LP) Send(dst *LP, at Time, h Handler, p any, n int64) {
	if h == nil {
		panic("sim: Send needs a handler")
	}
	re := remoteEvent{at: at, src: int32(lp.ID), seq: lp.sendSeq, h: h, p: p, n: n}
	lp.sendSeq++
	dst.mu.Lock()
	dst.inbox = append(dst.inbox, re)
	dst.mu.Unlock()
}

// drainInbox moves accumulated remote events into the LP's local queue.
// It is only called between windows (no concurrent Send), so the inbox
// snapshot—and therefore the resulting schedule—is deterministic.
//
// A remote event timestamped before the LP's clock is a causality clamp:
// the message arrived on a window boundary and is rewritten to fire
// immediately. Within one lookahead window that is the documented
// conservative-PDES boundary case and is merely counted; beyond one
// window it means the model's partitioning lied about its minimum
// cross-LP latency, which is a bug worth crashing on, not absorbing.
func (lp *LP) drainInbox() {
	lp.mu.Lock()
	pending := lp.inbox
	lp.inbox = lp.scratch[:0]
	lp.scratch = pending
	lp.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	slices.SortFunc(pending, remoteOrder)
	now := lp.Sim.Now()
	for i := range pending {
		re := &pending[i]
		at := re.at
		if at < now {
			if lag := now - at; lag > lp.par.Lookahead {
				panic(fmt.Sprintf(
					"sim: causality violation on LP %d: remote event at %v is %v behind now %v, more than one lookahead window (%v); the model's cross-LP latency bound is wrong",
					lp.ID, at, lag, now, lp.par.Lookahead))
			}
			lp.par.CausalityClamps++
			at = now
		}
		lp.Sim.schedule(at, re.h, re.p, re.n)
		re.h, re.p = nil, nil // release the payload once scheduled
	}
}

// Parallel coordinates a set of LPs with a conservative synchronization
// window. Lookahead must be a positive lower bound on cross-LP latency.
type Parallel struct {
	LPs       []*LP
	Lookahead Time

	// NumWorkers bounds how many OS-thread-backed goroutines execute LPs
	// concurrently. Zero means GOMAXPROCS. The worker count never
	// affects results, only wall-clock time.
	NumWorkers int

	// Barriers counts the number of synchronization rounds executed, a
	// proxy for PDES overhead reported by the scalability experiments.
	Barriers uint64

	// CausalityClamps counts remote events that landed on a window
	// boundary and were rewritten to "now" (see LP.drainInbox). A
	// handful per run is the expected conservative-PDES edge case; a
	// large count means lookahead is set too close to the true minimum
	// latency. Only mutated between windows, so reads after Run need no
	// synchronization.
	CausalityClamps uint64

	// Ticker, if set, is called on the coordinating goroutine at every
	// window barrier with the window horizon and the total events
	// processed so far. Returning true stops Run at that barrier: LPs
	// keep their pending events and a later Run resumes from the same
	// horizon, so an uncancelled run is bitwise-unaffected by the hook.
	Ticker func(now Time, processed uint64) (stop bool)

	next Time // resume point for successive Run calls
}

// NewParallel creates n LPs with fresh simulators.
func NewParallel(n int, lookahead Time) *Parallel {
	p := &Parallel{Lookahead: lookahead}
	for i := 0; i < n; i++ {
		p.LPs = append(p.LPs, &LP{ID: i, Sim: New(), par: p})
	}
	return p
}

// workers resolves the effective worker count for this host.
func (p *Parallel) workers() int {
	w := p.NumWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(p.LPs) {
		w = len(p.LPs)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run advances all LPs to the given simulated time using window-barrier
// synchronization, then delivers any boundary messages so nothing is
// silently lost. Run is resumable: successive calls continue from the
// previous horizon. It returns the total number of events processed
// across all LPs.
//
// Worker goroutines are persistent for the duration of the call: each
// window, idle workers claim LPs from a shared cursor and the main
// goroutine performs the (cheap, deterministic) inbox drains between
// windows. This costs two lightweight barrier crossings per window
// instead of len(LPs) goroutine spawns.
func (p *Parallel) Run(until Time) uint64 {
	if p.Lookahead <= 0 {
		panic("sim: PDES lookahead must be positive")
	}
	nw := p.workers()
	// Telemetry baselines: counters are published as deltas when the run
	// returns, keeping the window loop free of atomics.
	var preEvents uint64
	for _, lp := range p.LPs {
		preEvents += lp.Sim.Processed()
	}
	preBarriers, preClamps := p.Barriers, p.CausalityClamps
	var reached Time
	if nw <= 1 {
		reached = p.runSequential(until)
	} else {
		reached = p.runParallel(until, nw)
	}
	// Final inbox drain so no boundary message is silently lost. When the
	// Ticker stopped the run early, drain only to the reached horizon —
	// running to `until` here would silently complete a cancelled run.
	for _, lp := range p.LPs {
		lp.drainInbox()
		lp.Sim.RunUntil(reached)
	}
	p.next = reached
	var total uint64
	for _, lp := range p.LPs {
		total += lp.Sim.Processed()
	}
	obsEvents.Add(total - preEvents)
	obsBarriers.Add(p.Barriers - preBarriers)
	obsClamps.Add(p.CausalityClamps - preClamps)
	return total
}

// tickBarrier runs the Ticker at a window barrier, summing processed
// events across LPs (safe: workers are parked between windows).
func (p *Parallel) tickBarrier(horizon Time) (stop bool) {
	if p.Ticker == nil {
		return false
	}
	var total uint64
	for _, lp := range p.LPs {
		total += lp.Sim.Processed()
	}
	return p.Ticker(horizon, total)
}

// runSequential executes the same window schedule as runParallel on the
// calling goroutine. Because drains happen at identical boundaries and
// remote events are ordered by (time, src, seq) either way, it produces
// bitwise-identical schedules to any worker count.
func (p *Parallel) runSequential(until Time) Time {
	for window := p.next; window < until; window += p.Lookahead {
		limit := window + p.Lookahead
		if limit > until {
			limit = until
		}
		for _, lp := range p.LPs {
			lp.drainInbox()
		}
		for _, lp := range p.LPs {
			lp.Sim.RunUntil(limit)
		}
		p.Barriers++
		if p.tickBarrier(limit) {
			return limit
		}
	}
	return until
}

func (p *Parallel) runParallel(until Time, nw int) Time {
	ws := &workerState{limit: make(chan Time), done: make(chan struct{})}
	for w := 0; w < nw; w++ {
		go ws.work(p.LPs)
	}
	reached := until
	for window := p.next; window < until; window += p.Lookahead {
		limit := window + p.Lookahead
		if limit > until {
			limit = until
		}
		// Drain phase: single goroutine, no Send can run concurrently,
		// so inbox snapshots are deterministic.
		for _, lp := range p.LPs {
			lp.drainInbox()
		}
		// Execute phase: workers claim LPs from the cursor.
		ws.cursor.Store(0)
		for w := 0; w < nw; w++ {
			ws.limit <- limit
		}
		var sp obs.Span
		if p.Barriers%barrierWaitSample == 0 {
			sp = obs.StartSpan(obsBarrierWait)
		}
		for w := 0; w < nw; w++ {
			<-ws.done
		}
		sp.End()
		p.Barriers++
		if p.tickBarrier(limit) {
			reached = limit
			break
		}
	}
	close(ws.limit)
	return reached
}

// workerState is the reusable barrier shared by Run's persistent
// workers: a window broadcast (limit), an atomic LP-claim cursor, and a
// completion gather (done).
type workerState struct {
	limit  chan Time
	done   chan struct{}
	cursor atomic.Int64
}

func (ws *workerState) work(lps []*LP) {
	for limit := range ws.limit {
		for {
			i := int(ws.cursor.Add(1) - 1)
			if i >= len(lps) {
				break
			}
			lps[i].Sim.RunUntil(limit)
		}
		ws.done <- struct{}{}
	}
}
