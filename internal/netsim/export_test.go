package netsim

import "testing"

// PoisonReleasedPackets switches poison-on-release on for the rest of the
// test (see poisonOnRelease): a packet used after its release panics or
// reads as garbage instead of aliasing whatever reused its memory.
func PoisonReleasedPackets(t testing.TB) {
	poisonOnRelease = true
	t.Cleanup(func() { poisonOnRelease = false })
}
