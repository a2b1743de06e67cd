package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketMath(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	// Upper bounds are inclusive (Prometheus `le` semantics):
	// <=1: {0.5, 1}  <=2: +{1.5, 2}  <=4: +{3, 4}  +Inf: +{5, 100}.
	want := []uint64{2, 4, 6, 8}
	got := h.Cumulative()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", got, want)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if s := h.Sum(); s != 117 {
		t.Fatalf("sum = %v, want 117", s)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("NaN observation must be dropped, got count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	tb := TimeBuckets()
	for i := 1; i < len(tb); i++ {
		if tb[i] <= tb[i-1] {
			t.Fatalf("TimeBuckets not ascending at %d: %v", i, tb)
		}
	}
}

// FuzzHistogramObserve checks the bucket-math invariants for arbitrary
// observations: count equals the +Inf cumulative bucket, cumulative
// counts are monotone, and each value lands in the first bucket whose
// bound is >= v.
func FuzzHistogramObserve(f *testing.F) {
	f.Add(0.5, 3.0, math.Inf(1))
	f.Add(-1.0, 0.0, 1e300)
	f.Add(math.NaN(), 2.0, 2.0)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		bounds := []float64{1e-3, 1, 1e3}
		h := NewHistogram(bounds)
		vals := []float64{a, b, c}
		var wantCount uint64
		wantPerBucket := make([]uint64, len(bounds)+1)
		for _, v := range vals {
			h.Observe(v)
			if math.IsNaN(v) {
				continue
			}
			wantCount++
			i := 0
			for i < len(bounds) && v > bounds[i] {
				i++
			}
			wantPerBucket[i]++
		}
		if h.Count() != wantCount {
			t.Fatalf("count = %d, want %d", h.Count(), wantCount)
		}
		cum := h.Cumulative()
		if cum[len(cum)-1] != wantCount {
			t.Fatalf("+Inf bucket = %d, want %d", cum[len(cum)-1], wantCount)
		}
		var run uint64
		for i, c := range cum {
			if c < run {
				t.Fatalf("cumulative decreased at %d: %v", i, cum)
			}
			run = c
			var wantCum uint64
			for j := 0; j <= i; j++ {
				wantCum += wantPerBucket[j]
			}
			if c != wantCum {
				t.Fatalf("bucket %d = %d, want %d (vals %v)", i, c, wantCum, vals)
			}
		}
	})
}

func TestRegistryIdempotentGetters(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "h")
	c2 := r.Counter("x_total", "ignored")
	if c1 != c2 {
		t.Fatal("Counter getter must be idempotent")
	}
	h1 := r.Histogram(`lat{phase="a"}`, "h", []float64{1, 2})
	h2 := r.Histogram(`lat{phase="b"}`, "h", []float64{9, 99})
	// Sibling series inherit the family's bucket layout.
	if got := h2.Bounds(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("sibling bounds = %v, want [1 2]", got)
	}
	if h1 == h2 {
		t.Fatal("distinct labels must get distinct histograms")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge lookup of a counter family must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	var a, b Counter
	a.Add(1)
	b.Add(2)
	r.RegisterCounter("inst_total", "", &a)
	r.RegisterCounter("inst_total", "", &b)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "inst_total 2") {
		t.Fatalf("replace semantics broken:\n%s", sb.String())
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a counter").Add(3)
	r.Gauge("g", "a gauge").Set(-5)
	r.GaugeFunc("gf", "computed", func() float64 { return 1.5 })
	r.Histogram(`h{phase="x"}`, "a histogram", []float64{1, 2}).Observe(1.5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP c_total a counter",
		"# TYPE c_total counter",
		"c_total 3",
		"g -5",
		"gf 1.5",
		"# TYPE h histogram",
		`h_bucket{phase="x",le="1"} 0`,
		`h_bucket{phase="x",le="2"} 1`,
		`h_bucket{phase="x",le="+Inf"} 1`,
		`h_sum{phase="x"} 1.5`,
		`h_count{phase="x"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestSeriesNames: each registered series is exposed under its full name
// (family plus labels) as one sample line, in registration order.
func TestSeriesNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "")
	r.Counter(`a_total{k="v"}`, "")
	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			got = append(got, line)
		}
	}
	if len(got) != 2 || got[0] != "b_total 0" || got[1] != `a_total{k="v"} 0` {
		t.Fatalf("sample lines = %q", got)
	}
}

func TestMalformedNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("malformed name must panic")
		}
	}()
	r.Counter("bad{unclosed", "")
}

// TestConcurrentObserveAndScrape hammers one histogram and one counter
// from many goroutines while scraping, relying on -race to catch any
// unsynchronized access and on the invariant count == +Inf bucket in
// every rendered snapshot.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spin_total", "")
	h := r.Histogram("spin_seconds", "", []float64{0.25, 0.5, 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(seed * float64(i%7))
			}
		}(0.1 * float64(w+1))
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if h.Count() != h.Cumulative()[3] {
		t.Fatalf("count %d != +Inf bucket %d after quiesce", h.Count(), h.Cumulative()[3])
	}
}

func TestSpan(t *testing.T) {
	h := NewHistogram(TimeBuckets())
	sp := StartSpan(h)
	if d := sp.End(); d < 0 {
		t.Fatalf("negative span duration %v", d)
	}
	if h.Count() != 1 {
		t.Fatalf("span did not observe, count = %d", h.Count())
	}
	var inert Span
	if d := inert.End(); d != 0 {
		t.Fatalf("inert span returned %v", d)
	}
	if d := StartSpan(nil).End(); d != 0 {
		t.Fatalf("nil-histogram span returned %v", d)
	}
}
