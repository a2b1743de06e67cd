package transport

import "fmt"

// initWnd is the initial congestion window in segments (RFC 6928).
const initWnd = 10

// protocol is a table-driven Protocol implementation.
type protocol struct {
	name   string
	ecn    bool
	bands  int
	sender func(env *Env, flow *Flow) Sender
}

func (p *protocol) Name() string    { return p.name }
func (p *protocol) UsesECN() bool   { return p.ecn }
func (p *protocol) QueueBands() int { return p.bands }
func (p *protocol) NewSender(env *Env, flow *Flow) Sender {
	return p.sender(env, flow)
}

// NewRenoProtocol returns TCP New Reno, the paper's base configuration.
func NewRenoProtocol() Protocol {
	return &protocol{
		name: "newreno", bands: 1,
		sender: func(env *Env, flow *Flow) Sender {
			return NewTCPSender(env, flow, NewReno(env.MSS, initWnd), false)
		},
	}
}

// NewDCTCPProtocol returns DCTCP. Pair it with ECN-marking switch queues
// (netsim.ECNFactory) whose threshold K is the knob swept in Figure 13.
func NewDCTCPProtocol() Protocol {
	return &protocol{
		name: "dctcp", ecn: true, bands: 1,
		sender: func(env *Env, flow *Flow) Sender {
			return NewTCPSender(env, flow, NewDCTCP(env.MSS, initWnd), true)
		},
	}
}

// NewVegasProtocol returns delay-based TCP Vegas.
func NewVegasProtocol() Protocol {
	return &protocol{
		name: "vegas", bands: 1,
		sender: func(env *Env, flow *Flow) Sender {
			return NewTCPSender(env, flow, NewVegas(env.MSS, initWnd), false)
		},
	}
}

// NewWestwoodProtocol returns TCP Westwood.
func NewWestwoodProtocol() Protocol {
	return &protocol{
		name: "westwood", bands: 1,
		sender: func(env *Env, flow *Flow) Sender {
			return NewTCPSender(env, flow, NewWestwood(env.MSS, initWnd, env.Sim.Now), false)
		},
	}
}

// NewHomaProtocol returns the receiver-driven priority-queue transport.
// Pair it with strict-priority switch queues of HomaBands bands.
func NewHomaProtocol() Protocol {
	return &protocol{
		name: "homa", bands: HomaBands,
		sender: func(env *Env, flow *Flow) Sender {
			return NewHomaSender(env, flow)
		},
	}
}

// ByName resolves a protocol by its configuration name.
func ByName(name string) (Protocol, error) {
	switch name {
	case "newreno", "reno", "tcp":
		return NewRenoProtocol(), nil
	case "dctcp":
		return NewDCTCPProtocol(), nil
	case "vegas":
		return NewVegasProtocol(), nil
	case "westwood":
		return NewWestwoodProtocol(), nil
	case "homa":
		return NewHomaProtocol(), nil
	}
	return nil, fmt.Errorf("transport: unknown protocol %q", name)
}

// Names lists the supported protocol names.
func Names() []string {
	return []string{"newreno", "dctcp", "vegas", "westwood", "homa"}
}

// IsHoma reports whether the protocol uses receiver-driven grants, which
// requires granting-enabled receivers.
func IsHoma(p Protocol) bool { return p.Name() == "homa" }
