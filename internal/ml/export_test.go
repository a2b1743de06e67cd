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

// packRows returns m packed k-major for the row kernel.
func packRows(m *Matrix) packedRows {
	var p packedRows
	p.pack(m)
	return p
}

// WalkLanes runs the forward products a cell step takes, one row-kernel
// walk per lane through pool: out[a*m.Rows + r] = dot(m.row(r), lane a
// of xs), by mulLane's column list (the inputs x) or, with dense, by
// accStrided from +0 (the recurrent state h).
func (m *Matrix) WalkLanes(xs []float64, n int, out []float64, dense bool, pool *Pool) {
	p := packRows(m)
	R, K := m.Rows, m.Cols
	idx := make([]int, n*K)
	pool.Range(n, R*K, RangeFunc(func(lo, hi int) {
		for a := lo; a < hi; a++ {
			x, o := xs[a*K:(a+1)*K], out[a*R:(a+1)*R]
			if dense {
				zeroRange(o)
				p.accStrided(x, 1, K, o)
			} else {
				p.mulLane(x, o, idx[a*K:(a+1)*K])
			}
		}
	}))
}

// MulLanesT runs the trainer's backward lane product (laneGemm.mulLanesT)
// once: lane a of out = Σ_r dys[a*m.Rows + r]·m.row(r).
func (m *Matrix) MulLanesT(dys []float64, n int, out []float64, pool *Pool) {
	new(laneGemm).mulLanesT(m, dys, n, out, pool)
}

// AddGradLanes runs the trainer's weight-gradient product
// (laneGemm.addGradLanes) once: Grad[r] += Σ_a dys[a*m.Rows + r]·(lane
// a of xs) for every row r.
func (m *Matrix) AddGradLanes(dys []float64, n int, xs []float64, pool *Pool) {
	new(laneGemm).addGradLanes(m, dys, n, xs, pool)
}

// RangeFunc adapts a plain function to RangeTask, for tests that split
// an ad-hoc loop over a pool. Production callers bind a worker type
// instead, so their Range calls do not allocate.
type RangeFunc func(lo, hi int)

// RunRange calls f(lo, hi).
func (f RangeFunc) RunRange(lo, hi int) { f(lo, hi) }
