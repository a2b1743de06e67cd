package ml

import (
	"runtime"
	"sync"
)

// gateMulAdds is the estimated cost of one sigmoid or tanh in
// multiply-add equivalents (an exp, a divide and the range reduction),
// used by the per-lane gate passes to state their work to Range.
const gateMulAdds = 16

// Pool is a persistent goroutine worker pool used by the batched
// inference and training kernels. Workers are started once and reused
// across calls. Parallelism is work-proportional: Range splits a call
// into at most Workers() contiguous chunks of at least one dispatch floor
// of work each, so a call too small to repay a wake-up runs wholly on the
// caller with no channel or WaitGroup traffic, and a large one costs one
// channel send per chunk rather than per item. All kernels dispatched
// through a Pool write disjoint output regions and fix the arithmetic
// order per output element, so results are bitwise deterministic
// regardless of scheduling, worker count and floor.
//
// Range must not be called from inside a task (no nesting): with every
// worker blocked on an inner Range the pool would deadlock.
type Pool struct {
	workers   int
	floor     int // work per chunk below which Range does not dispatch
	tasks     chan poolTask
	idle      chan *sync.WaitGroup // WaitGroups of finished fan-outs, for reuse
	closeOnce sync.Once
}

// RangeTask is the work one Range call splits: RunRange processes items
// [lo, hi). Every caller passes something it already has — an inference
// batch state, a trainer layer's laneGemm, or a one-pointer worker type
// bound to a trainer layer — so a Range call allocates nothing.
type RangeTask interface {
	RunRange(lo, hi int)
}

type poolTask struct {
	task   RangeTask
	lo, hi int
	wg     *sync.WaitGroup
}

// NewPool starts a pool with the given worker count (minimum 1). A pool
// with one worker runs everything inline and spawns no goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, floor: dispatchFloor}
	if workers > 1 {
		// Buffered so a dispatching caller rarely blocks on a busy
		// worker before starting its own chunk; several callers (two
		// directions training at once) share the queue.
		p.tasks = make(chan poolTask, 4*workers)
		p.idle = make(chan *sync.WaitGroup, workers)
		for i := 0; i < workers; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	for t := range p.tasks {
		t.task.RunRange(t.lo, t.hi)
		t.wg.Done()
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// chunks returns how many contiguous chunks Range splits n items of
// costPerItem estimated multiply-adds into: at most Workers(), at most
// n, and few enough that an even split leaves every chunk at least one
// floor of work. One chunk means "run on the caller".
func (p *Pool) chunks(n, costPerItem int) int {
	if p == nil || p.workers <= 1 || n <= 1 {
		return 1
	}
	c := n
	if p.floor > 0 {
		if costPerItem <= 0 {
			return 1
		}
		// Items a chunk needs to reach the floor; n/items chunks of
		// floor(n/c) >= items each.
		items := (p.floor + costPerItem - 1) / costPerItem
		c = n / items
	}
	if c > p.workers {
		c = p.workers
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBounds returns chunk i of c over [0, n): an even split with the
// remainder spread over the leading chunks.
func chunkBounds(n, c, i int) (lo, hi int) {
	q, r := n/c, n%c
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

// Range runs task over [0, n) and waits for it to finish. costPerItem
// is the caller's estimate of one item's work in multiply-add
// equivalents. The range is split into contiguous, disjoint chunks (see
// chunks); a single chunk is one plain task.RunRange(0, n) call on the
// caller's goroutine. Otherwise the caller executes the first chunk and
// the pool's workers the rest, one channel send per chunk. Chunks must
// write disjoint data.
func (p *Pool) Range(n, costPerItem int, task RangeTask) {
	if n <= 0 {
		return
	}
	c := p.chunks(n, costPerItem)
	if c == 1 {
		obsPoolInline.Inc()
		task.RunRange(0, n)
		return
	}
	obsPoolDispatches.Inc()
	obsPoolSubmits.Add(uint64(c - 1))
	// A fan-out waits on a recycled WaitGroup, so it allocates nothing
	// once the pool has served as many concurrent fan-outs as it will
	// (a sync.Pool would do, but the race detector drains those at
	// random).
	var wg *sync.WaitGroup
	select {
	case wg = <-p.idle:
	default:
		wg = new(sync.WaitGroup)
	}
	wg.Add(c - 1)
	for i := 1; i < c; i++ {
		lo, hi := chunkBounds(n, c, i)
		p.tasks <- poolTask{task: task, lo: lo, hi: hi, wg: wg}
	}
	task.RunRange(chunkBounds(n, c, 0))
	wg.Wait()
	select {
	case p.idle <- wg:
	default:
	}
}

// Close stops the pool's workers. Close is idempotent; dispatching
// through the pool after Close panics. The tasks field is never
// reassigned after construction, so Close cannot race with workers
// still draining the channel.
func (p *Pool) Close() {
	if p.tasks != nil {
		p.closeOnce.Do(func() { close(p.tasks) })
	}
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *Pool
)

// SharedPool returns the process-wide inference pool, sized to
// GOMAXPROCS at first use. It is never closed.
func SharedPool() *Pool {
	sharedPoolOnce.Do(func() {
		sharedPool = NewPool(runtime.GOMAXPROCS(0))
		registerPoolGauges(sharedPool)
	})
	return sharedPool
}
