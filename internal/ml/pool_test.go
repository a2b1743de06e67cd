package ml

import (
	"sync"
	"testing"
)

// checkRange runs one Range call and asserts the splitter's contract:
// chunks are contiguous and disjoint, cover [0, n) exactly once, number
// at most Workers(), none carries less than the floor unless it is the
// only one, and Range reports how many there were.
func checkRange(t *testing.T, p *Pool, n, cost int) {
	t.Helper()
	type chunk struct{ lo, hi int }
	var (
		mu     sync.Mutex
		chunks []chunk
	)
	ran := p.Range(n, cost, RangeFunc(func(lo, hi int) {
		mu.Lock()
		chunks = append(chunks, chunk{lo, hi})
		mu.Unlock()
	}))
	if ran != len(chunks) {
		t.Fatalf("n=%d cost=%d: Range returned %d, ran %d chunks", n, cost, ran, len(chunks))
	}
	if n <= 0 {
		if len(chunks) != 0 {
			t.Fatalf("n=%d: fn ran %d times, want 0", n, len(chunks))
		}
		return
	}
	if len(chunks) > p.Workers() {
		t.Fatalf("n=%d cost=%d: %d chunks > %d workers", n, cost, len(chunks), p.Workers())
	}
	if want := p.chunks(n, cost); len(chunks) != want {
		t.Fatalf("n=%d cost=%d: %d chunks, splitter said %d", n, cost, len(chunks), want)
	}
	covered := make([]int, n)
	for _, c := range chunks {
		if c.lo < 0 || c.hi > n || c.lo >= c.hi {
			t.Fatalf("n=%d cost=%d: bad chunk [%d,%d)", n, cost, c.lo, c.hi)
		}
		for i := c.lo; i < c.hi; i++ {
			covered[i]++
		}
		floor := 0
		if p != nil {
			floor = p.floor
		}
		if len(chunks) > 1 && (c.hi-c.lo)*cost < floor {
			t.Fatalf("n=%d cost=%d: chunk [%d,%d) carries %d < floor %d", n, cost, c.lo, c.hi, (c.hi-c.lo)*cost, floor)
		}
	}
	for i, k := range covered {
		if k != 1 {
			t.Fatalf("n=%d cost=%d: item %d covered %d times", n, cost, i, k)
		}
	}
}

func TestPoolRangeSplit(t *testing.T) {
	cases := []struct {
		workers, floor, n, cost int
		want                    int // chunks
	}{
		{4, 100, 0, 10, 0},
		{4, 100, 1, 1000, 1},  // one item never splits
		{4, 100, 64, 0, 1},    // no stated work: inline
		{4, 100, 64, -3, 1},   // nonsense cost: inline
		{4, 100, 19, 10, 1},   // 190 < two floors
		{4, 100, 20, 10, 2},   // exactly two floors
		{4, 100, 3, 70, 1},    // 210 in total, but 2+1 items would leave 70
		{4, 100, 1000, 10, 4}, // capped by workers
		{1, 100, 1000, 10, 1}, // one worker: inline
		{8, 100, 3, 1000, 3},  // capped by n
		{4, 0, 64, 0, 4},      // floor 0: always fan out
		{4, 0, 2, 1, 2},
		{3, dispatchFloor, 16, dispatchFloor, 3},
	}
	for _, c := range cases {
		p := newPoolFloor(c.workers, c.floor)
		if c.n > 0 {
			if got := p.chunks(c.n, c.cost); got != c.want {
				t.Errorf("workers=%d floor=%d n=%d cost=%d: %d chunks, want %d", c.workers, c.floor, c.n, c.cost, got, c.want)
			}
		}
		checkRange(t, p, c.n, c.cost)
		p.Close()
	}
	// A nil pool is a valid one-worker pool.
	var nilPool *Pool
	checkRange(t, nilPool, 0, 5)
	checkRange(t, nilPool, 1, 5)
	checkRange(t, nilPool, 37, 1<<30)
}

func FuzzPoolRange(f *testing.F) {
	f.Add(uint8(4), uint16(100), uint16(64), uint16(10))
	f.Add(uint8(1), uint16(0), uint16(0), uint16(0))
	f.Add(uint8(3), uint16(0), uint16(1), uint16(0))
	f.Add(uint8(8), uint16(65535), uint16(65535), uint16(1))
	f.Fuzz(func(t *testing.T, workers uint8, floor, n, cost uint16) {
		p := newPoolFloor(int(workers%17), int(floor))
		defer p.Close()
		checkRange(t, p, int(n), int(cost))
	})
}
