package core

import (
	"reflect"
	"testing"

	"mimicnet/internal/netsim"
	"mimicnet/internal/sim"
)

// Packets are recycled the moment the fabric or the engine is done with
// them (netsim.Packet states who that is). A component that kept a
// pointer past that moment would read some later packet's fields, and
// the first sign would be a golden fingerprint drifting for no visible
// reason. This test reruns the suites that cover every owner — the
// datagen Tracer's taps, the engine over all role kinds at 1, 2 and 4
// workers, the Mimic shims' drops and deliveries — with released
// packets poisoned instead of recycled, where such a read panics or
// produces garbage that no golden matches.
func TestReleasedPacketsStayDead(t *testing.T) {
	recycledIng, recycledEg, _, err := GenerateTrainingData(fastBase(), 200*sim.Millisecond, fastTrain())
	if err != nil {
		t.Fatal(err)
	}

	poisonReleasedPackets(t)
	var pool netsim.PacketPool
	pkt := pool.Get()
	pool.Put(pkt)
	if pkt.Src != -1 {
		t.Fatal("poison switch did not reach netsim: the rest of this test would prove nothing")
	}

	ing, eg, _, err := GenerateTrainingData(fastBase(), 200*sim.Millisecond, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ing, recycledIng) || !reflect.DeepEqual(eg, recycledEg) {
		t.Error("datagen: datasets differ once released packets are poisoned; the Tracer read a packet after its release")
	}
	t.Run("EngineGoldenParity", TestEngineGoldenParity)
	t.Run("RoleVectorDeterminism", TestRoleVectorDeterminism)
}
