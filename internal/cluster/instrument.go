package cluster

import "mimicnet/internal/sim"

// This file provides queue-depth instrumentation for the observable
// cluster, one of the examples of "arbitrary instrumentation" the paper
// promises for it (§2.1, §7.1: "e.g., by dumping pcaps or queue depths"):
// a periodic queue-depth sampler. Per-packet records come from
// netsim.Fabric.Taps, which core.Tracer reads for datagen.

// QueueSample is one observation of a port's queue.
type QueueSample struct {
	At      sim.Time
	From    int
	To      int
	Packets int
	Bytes   int
}

// QueueDepthSampler periodically samples the queue depth of selected
// ports. Attach before the simulation runs.
type QueueDepthSampler struct {
	Interval sim.Time
	Samples  []QueueSample

	ports [][2]int
}

// SampleQueues samples every port of the observable cluster's switches at
// the given interval until the simulation ends. Passing specific port
// pairs restricts the set.
func (inst *Simulation) SampleQueues(interval sim.Time, ports ...[2]int) *QueueDepthSampler {
	s := &QueueDepthSampler{Interval: interval, ports: ports}
	if len(s.ports) == 0 {
		s.ports = inst.observablePorts()
	}
	var tick func()
	tick = func() {
		for _, p := range s.ports {
			port := inst.Fabric.Port(p[0], p[1])
			if port == nil {
				continue
			}
			s.Samples = append(s.Samples, QueueSample{
				At: inst.Sim.Now(), From: p[0], To: p[1],
				Packets: port.QueueLen(), Bytes: port.QueueBytes(),
			})
		}
		inst.Sim.After(interval, tick)
	}
	inst.Sim.At(0, tick)
	return s
}

// observablePorts enumerates the switch-side directed ports of the
// observable cluster (ToR and agg output queues — where fan-in congestion
// lives).
func (inst *Simulation) observablePorts() [][2]int {
	t := inst.Topo
	c := inst.Cfg.Observable
	tc := t.Config()
	var ports [][2]int
	for r := 0; r < tc.RacksPerCluster; r++ {
		tor := t.ToRID(c, r)
		for slot := 0; slot < tc.HostsPerRack; slot++ {
			ports = append(ports, [2]int{tor, t.HostID(c, r, slot)})
		}
		for a := 0; a < tc.AggPerCluster; a++ {
			agg := t.AggID(c, a)
			ports = append(ports, [2]int{tor, agg}, [2]int{agg, tor})
		}
	}
	return ports
}

// MaxDepth returns the maximum sampled queue depth in packets.
func (s *QueueDepthSampler) MaxDepth() int {
	max := 0
	for _, smp := range s.Samples {
		if smp.Packets > max {
			max = smp.Packets
		}
	}
	return max
}
