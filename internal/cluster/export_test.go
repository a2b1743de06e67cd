package cluster

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// netsim's poison-on-release switch is unexported so that it cannot
// become a knob, and netsim's own export_test.go is invisible from here;
// the linker is the one remaining way for this package's tests to run a
// whole simulation with it on.
//
//go:linkname poisonOnRelease mimicnet/internal/netsim.poisonOnRelease
var poisonOnRelease bool

// poisonReleasedPackets is netsim.PoisonReleasedPackets for this package.
func poisonReleasedPackets(t testing.TB) {
	poisonOnRelease = true
	t.Cleanup(func() { poisonOnRelease = false })
}
