// Package flowsim is the flow-level (fluid) simulator MimicNet compares
// against (the paper uses SimGrid). Instead of packets, it models each
// flow as a fluid stream and re-solves max-min fair bandwidth shares on
// every flow arrival and departure. It is fast but blind to packet
// effects—drops, queueing delay, RTT—which is exactly the accuracy gap
// Figures 1 and 7 quantify.
package flowsim

import (
	"math"
	"strconv"

	"mimicnet/internal/metrics"
	"mimicnet/internal/sim"
	"mimicnet/internal/topo"
	"mimicnet/internal/workload"
)

// Config describes a flow-level run.
type Config struct {
	Topo       topo.Config
	Workload   workload.Config
	LinkBps    float64 // capacity of every link
	Observable int     // cluster whose flows are measured
}

// Results are the metrics a flow-level simulation can produce. RTT is
// structurally unavailable (paper §9: "Flow-level simulation is too
// coarse-grained to provide this metric").
type Results struct {
	FCTs        []float64
	Throughputs []float64
	FCTByID     map[string]float64
	Completed   int
	Events      uint64
}

type activeFlow struct {
	id        uint64
	src, dst  int
	remaining float64 // bytes
	rate      float64 // bytes/sec
	links     [][2]int
	observed  bool
	start     sim.Time
}

// Run executes the fluid simulation to the given horizon.
func Run(cfg Config, until sim.Time) (Results, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return Results{}, err
	}
	t := topo.New(cfg.Topo)
	cfg.Workload.HostLinkBps = cfg.LinkBps
	flows, err := workload.Generate(t, cfg.Workload)
	if err != nil {
		return Results{}, err
	}

	capBytes := cfg.LinkBps / 8
	col := metrics.NewCollector()
	var res Results
	res.FCTByID = make(map[string]float64)

	active := make(map[uint64]*activeFlow)
	now := sim.Time(0)
	next := 0 // next arrival index

	recompute := func() {
		maxMin(active, capBytes)
		res.Events++
	}

	// advance moves time forward, draining fluid.
	advance := func(to sim.Time) {
		dt := (to - now).Seconds()
		if dt <= 0 {
			now = to
			return
		}
		for _, f := range active {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			if f.observed && t.ClusterOf(f.dst) == cfg.Observable && moved > 0 {
				col.BytesReceived(f.dst, int64(moved), to)
			}
		}
		now = to
	}

	completionTime := func() sim.Time {
		earliest := sim.Time(math.MaxInt64)
		for _, f := range active {
			if f.rate <= 0 {
				continue
			}
			dt := f.remaining / f.rate
			// Round up one tick: the conversion truncates, and an event
			// scheduled at (or before) "now" would spin the loop without
			// draining any fluid. Overshooting is safe—advance clamps
			// moved fluid to the remaining bytes.
			at := now + sim.FromSeconds(dt) + 1
			if at < earliest {
				earliest = at
			}
		}
		return earliest
	}

	for {
		// Next event: arrival or earliest completion.
		nextEvent := sim.Time(math.MaxInt64)
		if next < len(flows) {
			nextEvent = flows[next].Start
		}
		if ct := completionTime(); ct < nextEvent {
			nextEvent = ct
		}
		if nextEvent > until || nextEvent == sim.Time(math.MaxInt64) {
			advance(until)
			break
		}
		advance(nextEvent)

		// Departures first (remaining drained to ~0).
		changed := false
		for id, f := range active {
			if f.remaining <= 1e-6 {
				delete(active, id)
				changed = true
				if f.observed {
					key := strconv.FormatUint(f.id, 10)
					col.FlowCompleted(key, now)
					res.Completed++
				}
			}
		}
		// Arrivals at this instant.
		for next < len(flows) && flows[next].Start <= now {
			wf := flows[next]
			next++
			path := t.Path(wf.Src, wf.Dst, topo.FlowHash(wf.Src, wf.Dst, wf.ID))
			links := make([][2]int, 0, len(path)-1)
			for i := 1; i < len(path); i++ {
				links = append(links, [2]int{path[i-1], path[i]})
			}
			observed := t.ClusterOf(wf.Src) == cfg.Observable || t.ClusterOf(wf.Dst) == cfg.Observable
			f := &activeFlow{
				id: wf.ID, src: wf.Src, dst: wf.Dst,
				remaining: float64(wf.Bytes), links: links,
				observed: observed, start: wf.Start,
			}
			active[wf.ID] = f
			if observed {
				col.FlowStarted(strconv.FormatUint(wf.ID, 10), wf.Src, wf.Dst, wf.Bytes, now)
			}
			changed = true
		}
		if changed {
			recompute()
		}
	}

	res.FCTs = col.FCTs()
	res.Throughputs = col.Throughputs()
	res.FCTByID = col.FCTByID()
	return res, nil
}

// maxMin solves max-min fair rates by progressive filling: repeatedly
// saturate the most constrained link, freeze its flows, and continue.
// All unfrozen flows share an identical cumulative rate, so rates are
// assigned lazily at freeze time — O(rounds*links + flows*pathlen) per
// call instead of the naive O(rounds*links*flows).
func maxMin(active map[uint64]*activeFlow, capBytes float64) {
	type linkState struct {
		capacity float64
		flows    []*activeFlow
		unfrozen int
	}
	links := make(map[[2]int]*linkState)
	flows := make([]*activeFlow, 0, len(active))
	for _, f := range active {
		f.rate = -1 // sentinel: not yet frozen
		flows = append(flows, f)
		for _, l := range f.links {
			ls, ok := links[l]
			if !ok {
				ls = &linkState{capacity: capBytes}
				links[l] = ls
			}
			ls.flows = append(ls.flows, f)
			ls.unfrozen++
		}
	}
	linkList := make([]*linkState, 0, len(links))
	for _, ls := range links {
		linkList = append(linkList, ls)
	}
	remaining := len(flows)
	cum := 0.0 // cumulative share every still-unfrozen flow has earned
	for remaining > 0 {
		// Bottleneck: the link whose remaining capacity per unfrozen flow
		// is smallest.
		bottleneck := math.Inf(1)
		for _, ls := range linkList {
			if ls.unfrozen == 0 {
				continue
			}
			if share := ls.capacity / float64(ls.unfrozen); share < bottleneck {
				bottleneck = share
			}
		}
		if math.IsInf(bottleneck, 1) {
			break
		}
		cum += bottleneck
		for _, ls := range linkList {
			if ls.unfrozen > 0 {
				ls.capacity -= bottleneck * float64(ls.unfrozen)
			}
		}
		// Freeze flows on saturated links; each flow freezes exactly once
		// and decrements its links' unfrozen counters.
		for _, ls := range linkList {
			if ls.unfrozen == 0 || ls.capacity > 1e-9 {
				continue
			}
			for _, f := range ls.flows {
				if f.rate >= 0 {
					continue
				}
				f.rate = cum
				remaining--
				for _, l := range f.links {
					links[l].unfrozen--
				}
			}
		}
	}
	// Flows never frozen (shouldn't happen on finite capacities) get the
	// accumulated share.
	for _, f := range flows {
		if f.rate < 0 {
			f.rate = cum
		}
	}
}
