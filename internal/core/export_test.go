package core

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// netsim's poison-on-release switch is unexported so that it cannot
// become a knob, and netsim's own export_test.go is invisible from here;
// the linker is the one remaining way for this package's tests to run
// whole compositions with it on.
//
//go:linkname poisonOnRelease mimicnet/internal/netsim.poisonOnRelease
var poisonOnRelease bool

// poisonReleasedPackets is netsim.PoisonReleasedPackets for this package.
func poisonReleasedPackets(t testing.TB) {
	poisonOnRelease = true
	t.Cleanup(func() { poisonOnRelease = false })
}

// ModelPackets returns the number of packets served by a model (the
// hybrid harness's "packets through the model under test"; for Mimic
// roles it counts both directions' boundary packets).
func (e *Engine) ModelPackets() uint64 {
	var total uint64
	for _, cc := range e.clusters {
		total += cc.modelPackets
	}
	return total
}
