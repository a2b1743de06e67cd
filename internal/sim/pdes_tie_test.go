package sim

import (
	"fmt"
	"testing"
)

// TestRemoteTieOrdering pins the PDES tie-break contract: remote events
// arriving at one LP with the SAME timestamp execute in (time, source
// LP, source sequence) order, regardless of worker count or the
// wall-clock order the sends happened to land in the inbox. This is the
// rule that makes egress-direction engines — where several model-driven
// LPs re-materialize packets at the core LP at identical nanoseconds —
// bitwise worker-invariant, so it is asserted, not just documented.
func TestRemoteTieOrdering(t *testing.T) {
	const (
		lookahead = 10
		senders   = 3
		perSender = 4
		tieA      = Time(100) // every sender hits both tie times
		tieB      = Time(200)
	)
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewParallel(senders+1, lookahead)
			p.NumWorkers = workers
			target := p.LPs[0]

			type arrival struct {
				at       Time
				src, seq int
			}
			var got []arrival // appended only by LP 0's execution: no lock needed

			for s := 1; s <= senders; s++ {
				lp := p.LPs[s]
				// Stagger the local send instants (later LPs send earlier)
				// so inbox arrival order correlates with nothing useful;
				// the sequence numbers still count per-LP send order.
				for k := 0; k < perSender; k++ {
					k := k
					src := s
					sendAt := Time(senders - s + 1 + k) // within the first window
					lp.Sim.At(sendAt, func() {
						lp.Send(target, tieA, callFunc, func() {
							got = append(got, arrival{tieA, src, 2 * k})
						}, 0)
						lp.Send(target, tieB, callFunc, func() {
							got = append(got, arrival{tieB, src, 2*k + 1})
						}, 0)
					})
				}
			}
			p.Run(300)

			want := len(got)
			if want != senders*perSender*2 {
				t.Fatalf("delivered %d remote events, want %d", want, senders*perSender*2)
			}
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				ok := a.at < b.at ||
					(a.at == b.at && a.src < b.src) ||
					(a.at == b.at && a.src == b.src && a.seq < b.seq)
				if !ok {
					t.Fatalf("tie order violated at %d: (%d,%d,%d) before (%d,%d,%d); full order %v",
						i, a.at, a.src, a.seq, b.at, b.src, b.seq, got)
				}
			}
		})
	}
}
