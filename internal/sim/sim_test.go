package sim

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2.0", got)
	}
	if got := FromSeconds(0.5); got != 500*Millisecond {
		t.Errorf("FromSeconds(0.5) = %v, want 500ms", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000000s" {
		t.Errorf("String() = %q", s)
	}
}

func TestRunExecutesInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
	if s.Processed() != 3 {
		t.Errorf("Processed() = %d, want 3", s.Processed())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var fired Time
	s.At(100, func() {
		s.After(50, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 150 {
		t.Errorf("fired at %v, want 150", fired)
	}
}

// A stopped Timer is the kernel's one way to cancel: its entry never
// fires and is not counted.
func TestCancel(t *testing.T) {
	s := New()
	fired := false
	var tm Timer
	tm.Init(s, func(any, int64) { fired = true }, nil, 0)
	tm.Reset(10)
	tm.Stop()
	tm.Stop() // stopping a disarmed timer is a no-op
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if s.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", s.Processed())
	}
}

func TestRunUntilStopsAtLimitAndAdvancesClock(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v, want 25 (clock advanced to limit)", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("after second RunUntil fired %v, want all 4", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	s.After(-1, func() {})
}

// A ticker that returns true stops the run after the current event,
// leaving the rest queued.
func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func() { count++ })
	s.At(2, func() { count++ })
	s.SetTicker(1, func(Time, uint64) bool { return count == 1 })
	s.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (the ticker should halt the loop)", count)
	}
	// Run again resumes.
	s.Run()
	if count != 2 {
		t.Errorf("count = %d, want 2 after resuming", count)
	}
}

func TestPendingCountsQueue(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if len(s.heap) != 2 {
		t.Errorf("%d events queued, want 2", len(s.heap))
	}
}

// Property: events always fire in non-decreasing time order, regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		var fired []Time
		for _, at := range times {
			at := Time(at)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving At with Timer Reset/Stop never loses or
// duplicates events.
func TestCancelProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		fired := 0
		want := 0
		timers := make([]Timer, int(n))
		for i := range timers {
			s.At(Time(rng.Intn(1000)), func() { fired++ })
			want++
			timers[i].Init(s, func(any, int64) { fired++ }, nil, 0)
			timers[i].Reset(Time(rng.Intn(1000)))
			if rng.Intn(2) == 0 {
				timers[i].Stop()
			} else {
				want++
			}
		}
		s.Run()
		return fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		rng := rand.New(rand.NewSource(42))
		var fired []Time
		var schedule func()
		schedule = func() {
			if s.Now() > 10000 {
				return
			}
			fired = append(fired, s.Now())
			s.After(Time(rng.Intn(100)+1), schedule)
		}
		s.At(0, schedule)
		s.Run()
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// callFunc is a typed handler that runs the func() carried in p, so the
// PDES tests can send closures through LP.Send.
func callFunc(p any, _ int64) { p.(func())() }

func TestParallelDeliversCrossLPMessages(t *testing.T) {
	p := NewParallel(2, 100)
	got := make([]Time, 0)
	// LP0 sends to LP1 every 100 ticks.
	var tick func()
	lp0, lp1 := p.LPs[0], p.LPs[1]
	tick = func() {
		at := lp0.Sim.Now() + 100
		lp0.Send(lp1, at, callFunc, func() { got = append(got, lp1.Sim.Now()) }, 0)
		if at < 1000 {
			lp0.Sim.At(at, tick)
		}
	}
	lp0.Sim.At(0, tick)
	p.Run(2000)
	if len(got) == 0 {
		t.Fatal("no cross-LP messages delivered")
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("cross-LP messages out of order: %v", got)
		}
	}
	if p.Barriers == 0 {
		t.Error("expected at least one synchronization barrier")
	}
}

func TestParallelBarrierCountScalesWithLookahead(t *testing.T) {
	fine := NewParallel(2, 10)
	fine.Run(1000)
	coarse := NewParallel(2, 100)
	coarse.Run(1000)
	if fine.Barriers <= coarse.Barriers {
		t.Errorf("fine lookahead barriers %d should exceed coarse %d",
			fine.Barriers, coarse.Barriers)
	}
}

func TestParallelZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero lookahead")
		}
	}()
	NewParallel(1, 0).Run(10)
}

// Scheduling events steadily must not allocate once the pool has warmed
// up: records are recycled as they fire.
func TestEventPoolSteadyStateDoesNotAllocate(t *testing.T) {
	s := New()
	var next func()
	next = func() { s.After(1, next) }
	s.At(0, next)
	step := func() { s.RunUntil(s.Now() + 1) } // exactly one event
	for i := 0; i < 2*poolBlock; i++ {
		step() // warm the pool
	}
	allocs := testing.AllocsPerRun(1000, step)
	if allocs > 0 {
		t.Errorf("steady-state event loop allocates %v/op, want 0", allocs)
	}
}

// A remote event landing exactly on a window boundary is clamped to the
// LP's current time and counted, not silently absorbed.
func TestCausalityClampIsCounted(t *testing.T) {
	p := NewParallel(2, 100)
	lp0, lp1 := p.LPs[0], p.LPs[1]
	var firedAt Time
	// Sent from the middle of window [0,100) for a time in the same
	// window: by the time LP1 drains at the next boundary its clock is
	// already at 100, so the event is one sub-window late.
	lp0.Sim.At(50, func() {
		lp0.Send(lp1, 60, callFunc, func() { firedAt = lp1.Sim.Now() }, 0)
	})
	p.Run(300)
	if p.CausalityClamps != 1 {
		t.Errorf("CausalityClamps = %d, want 1", p.CausalityClamps)
	}
	if firedAt != 100 {
		t.Errorf("clamped event fired at %v, want rewritten to window boundary 100", firedAt)
	}
}

// A remote event more than one lookahead window in the past means the
// model's cross-LP latency bound is wrong; that must crash, not clamp.
func TestCausalityViolationBeyondWindowPanics(t *testing.T) {
	p := NewParallel(2, 100)
	lp0, lp1 := p.LPs[0], p.LPs[1]
	lp0.Sim.At(250, func() {
		lp0.Send(lp1, 10, callFunc, func() {}, 0) // 290 behind by drain time
	})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for causality violation beyond one lookahead window")
		}
	}()
	p.Run(1000)
}

// The schedule must not depend on the worker count: 1 worker (sequential
// fallback) and many workers must deliver remote events in the identical
// (time, src LP, per-src seq) order.
func TestParallelWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []int {
		p := NewParallel(4, 50)
		p.NumWorkers = workers
		var mu sync.Mutex
		var order []int
		for i, lp := range p.LPs {
			i, lp := i, lp
			var tick func()
			tick = func() {
				dst := p.LPs[(i+1)%len(p.LPs)]
				tag := i*1000 + int(lp.Sim.Now())
				lp.Send(dst, lp.Sim.Now()+50, callFunc, func() {
					mu.Lock()
					order = append(order, tag)
					mu.Unlock()
				}, 0)
				if lp.Sim.Now() < 900 {
					lp.Sim.After(25, tick)
				}
			}
			lp.Sim.At(Time(i), tick)
		}
		p.Run(1000)
		return order
	}
	seq := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		if len(got) != len(seq) {
			t.Fatalf("workers=%d delivered %d events, sequential delivered %d", w, len(got), len(seq))
		}
		// Events within one LP's window fire in deterministic order, but
		// the cross-LP global append order can interleave; compare the
		// per-destination subsequences instead.
		perDst := func(order []int) map[int][]int {
			m := map[int][]int{}
			for _, tag := range order {
				m[tag/1000] = append(m[tag/1000], tag)
			}
			return m
		}
		a, b := perDst(seq), perDst(got)
		for k := range a {
			if len(a[k]) != len(b[k]) {
				t.Fatalf("workers=%d: src %d delivered %d events, want %d", w, k, len(b[k]), len(a[k]))
			}
			for i := range a[k] {
				if a[k][i] != b[k][i] {
					t.Fatalf("workers=%d: src %d diverged at %d: %d vs %d", w, k, i, b[k][i], a[k][i])
				}
			}
		}
	}
}

// Run must be resumable: two half-horizon calls land in the same state as
// one full-horizon call.
func TestParallelRunIsResumable(t *testing.T) {
	build := func() (*Parallel, *[]Time) {
		p := NewParallel(2, 100)
		var fired []Time
		lp0, lp1 := p.LPs[0], p.LPs[1]
		var tick func()
		tick = func() {
			lp0.Send(lp1, lp0.Sim.Now()+100, callFunc, func() {
				fired = append(fired, lp1.Sim.Now())
			}, 0)
			if lp0.Sim.Now() < 900 {
				lp0.Sim.After(100, tick)
			}
		}
		lp0.Sim.At(0, tick)
		return p, &fired
	}
	pa, fa := build()
	pa.Run(1000)
	pb, fb := build()
	pb.Run(500)
	pb.Run(1000)
	if len(*fa) != len(*fb) {
		t.Fatalf("split run fired %d events, full run %d", len(*fb), len(*fa))
	}
	for i := range *fa {
		if (*fa)[i] != (*fb)[i] {
			t.Fatalf("split run diverged at %d: %v vs %v", i, (*fb)[i], (*fa)[i])
		}
	}
}

func BenchmarkEventLoop(b *testing.B) {
	s := New()
	var next func()
	next = func() { s.After(1, next) }
	s.At(0, next)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(s.Now() + 1)
	}
}
