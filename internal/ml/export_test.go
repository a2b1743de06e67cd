package ml

import (
	"fmt"
	"testing"
)

// newPoolFloor is NewPool with the dispatch floor replaced. At floor 0
// every Range call over more than one item fans out, which is how the
// tests keep the parallel path exercised at shapes the production floor
// runs inline. The floor is deliberately not an option of NewPool.
func newPoolFloor(workers, floor int) *Pool {
	p := NewPool(workers)
	p.floor = floor
	return p
}

// poolConfig is one (workers, floor) setting the bitwise contract must
// hold under.
type poolConfig struct{ workers, floor int }

// poolConfigs is the production floor plus forced dispatch at 1, 2 and 4
// workers. Artifacts and predictions must be identical across all four.
var poolConfigs = []poolConfig{{2, dispatchFloor}, {1, 0}, {2, 0}, {4, 0}}

// String names the config; the production floor prints as "prod", so
// subtest names survive a re-measured dispatchFloor.
func (c poolConfig) String() string {
	if c.floor == dispatchFloor && c.floor > 0 {
		return fmt.Sprintf("floor=prod/w=%d", c.workers)
	}
	return fmt.Sprintf("floor=%d/w=%d", c.floor, c.workers)
}

// start builds the configured pool and also installs it as the
// process-wide pool until the test ends, so code that reaches the pool
// through SharedPool() (Train, NewBatchedStatefulModel(.., nil)) runs
// under the same setting.
func (c poolConfig) start(t testing.TB) *Pool {
	t.Helper()
	SharedPool() // settle the once before swapping the variable
	p, old := newPoolFloor(c.workers, c.floor), sharedPool
	sharedPool = p
	t.Cleanup(func() {
		sharedPool = old
		p.Close()
	})
	return p
}

// forEachPool runs fn as one subtest per entry of poolConfigs.
func forEachPool(t *testing.T, fn func(t *testing.T, pool *Pool)) {
	t.Helper()
	for _, c := range poolConfigs {
		t.Run(c.String(), func(t *testing.T) { fn(t, c.start(t)) })
	}
}

// MulLanes runs the trainer's forward lane product (laneGemm.mulLanes)
// once, packing m for it: out[a*outStride + r] = dot(m.row(r), lane a of
// xs) for r in [r0, r1), walking the inputs as dense or sparse ones.
func (m *Matrix) MulLanes(r0, r1 int, xs []float64, n int, out []float64, outStride int, dense bool, pool *Pool) {
	p := packRows(m)
	new(laneGemm).mulLanes(m, &p, r0, r1, xs, n, out, outStride, dense, pool)
}

// MulLanesT runs the trainer's backward lane product (laneGemm.mulLanesT)
// once: lane a of out = Σ_{r in [r0,r1)} dys[a*dyStride + r]·m.row(r).
func (m *Matrix) MulLanesT(r0, r1 int, dys []float64, dyStride, n int, out []float64, pool *Pool) {
	new(laneGemm).mulLanesT(m, r0, r1, dys, dyStride, n, out, pool)
}

// AddGradLanes runs the trainer's weight-gradient product
// (laneGemm.addGradLanes) once: Grad[r] += Σ_a dys[a*dyStride + r]·(lane
// a of xs) for r in [r0, r1).
func (m *Matrix) AddGradLanes(r0, r1 int, dys []float64, dyStride, n int, xs []float64, pool *Pool) {
	new(laneGemm).addGradLanes(m, r0, r1, dys, dyStride, n, xs, pool)
}

// RangeFunc adapts a plain function to RangeTask, for tests that split
// an ad-hoc loop over a pool. Production callers bind a worker type
// instead, so their Range calls do not allocate.
type RangeFunc func(lo, hi int)

// RunRange calls f(lo, hi).
func (f RangeFunc) RunRange(lo, hi int) { f(lo, hi) }
