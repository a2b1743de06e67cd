package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(7), NewStream(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestDeriveIsStableAndIndependent(t *testing.T) {
	a := NewStream(1).Derive("tcp")
	b := NewStream(1).Derive("tcp")
	c := NewStream(1).Derive("workload")
	av, bv, cv := a.Float64(), b.Float64(), c.Float64()
	if av != bv {
		t.Error("same label derivation differs")
	}
	if av == cv {
		t.Error("different labels produced identical streams")
	}
}

// TestParentDeriveMatchesStreamDerive pins Parent.Derive to the
// stream it replaces: for every seed and label in the table, the child
// of NewParent(seed) starts where NewStream(seed).Derive(label) does —
// the same seed and the same first draws — however many children one
// Parent derives, in whatever order.
func TestParentDeriveMatchesStreamDerive(t *testing.T) {
	labels := []string{"", "mimic-0-ingress", "mimic-31-egress", "feeder-7-ingress",
		"feeder-63-egress", "host-12", "coflow", "µ-label"}
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40, math.MaxInt64, math.MinInt64} {
		p := NewParent(seed)
		for i := range labels {
			label := labels[len(labels)-1-i] // derive out of table order
			want := NewStream(seed).Derive(label)
			got := p.Derive(label)
			if got.State() != want.State() {
				t.Fatalf("seed %d label %q: Parent child state %+v, Stream.Derive %+v", seed, label, got.State(), want.State())
			}
			for d := 0; d < 4; d++ {
				if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d label %q draw %d: %v, want %v", seed, label, d, g, w)
				}
			}
		}
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{MeanVal: 3.5}
	s := NewStream(1)
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = d.Sample(s)
		if vals[i] < 0 {
			t.Fatal("negative exponential sample")
		}
	}
	if m := Mean(vals); math.Abs(m-3.5) > 0.15 {
		t.Errorf("sample mean = %v, want ~3.5", m)
	}
}

func TestLogNormalMeanAndFit(t *testing.T) {
	d := LogNormal{Mu: 1.0, Sigma: 0.5}
	want := math.Exp(1.0 + 0.125)
	if math.Abs(d.Mean()-want) > 1e-12 {
		t.Errorf("Mean() = %v, want %v", d.Mean(), want)
	}
	s := NewStream(2)
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = d.Sample(s)
	}
	fit := FitLogNormal(samples, 1)
	if math.Abs(fit.Mu-1.0) > 0.02 || math.Abs(fit.Sigma-0.5) > 0.02 {
		t.Errorf("fit = %+v, want mu=1.0 sigma=0.5", fit)
	}
}

func TestFitLogNormalDegenerate(t *testing.T) {
	fit := FitLogNormal(nil, 2.0)
	if math.Abs(fit.Mean()-2.0) > 1e-6 {
		t.Errorf("degenerate fit mean = %v, want 2.0", fit.Mean())
	}
	fit = FitLogNormal([]float64{-1, 0}, 0) // no usable samples, bad fallback
	if fit.Mean() <= 0 {
		t.Errorf("fallback mean should be positive, got %v", fit.Mean())
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("fresh EWMA should be uninitialized")
	}
	e.Update(10)
	if e.Value() != 10 {
		t.Errorf("first update = %v, want 10", e.Value())
	}
	e.Update(20)
	if e.Value() != 15 {
		t.Errorf("second update = %v, want 15", e.Value())
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if q := Quantile(vals, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(vals, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(vals, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Quantile must not mutate its input.
	if vals[0] != 4 {
		t.Error("Quantile mutated input")
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean([2 4]) != 3")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := Quantile(vals, q1), Quantile(vals, q2)
		lo, hi := Quantile(vals, 0), Quantile(vals, 1)
		return a <= b && a >= lo && b <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: EWMA output always lies between min and max of inputs seen.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(vals []float64, alphaRaw uint8) bool {
		alpha := (float64(alphaRaw%100) + 1) / 101
		e := NewEWMA(alpha)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			got := e.Update(v)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The counting-source wrapper must not perturb the value sequence: a
// stream must draw exactly what rand.New(rand.NewSource(seed)) draws.
func TestStreamMatchesStdlibSequence(t *testing.T) {
	s := NewStream(42)
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0:
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("draw %d: Float64 %v != %v", i, got, want)
			}
		case 1:
			if got, want := s.Intn(97), ref.Intn(97); got != want {
				t.Fatalf("draw %d: Intn %v != %v", i, got, want)
			}
		case 2:
			if got, want := s.NormFloat64(), ref.NormFloat64(); got != want {
				t.Fatalf("draw %d: NormFloat64 %v != %v", i, got, want)
			}
		case 3:
			if got, want := s.ExpFloat64(), ref.ExpFloat64(); got != want {
				t.Fatalf("draw %d: ExpFloat64 %v != %v", i, got, want)
			}
		case 4:
			got, want := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}
			s.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
			ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("draw %d: Shuffle %v != %v", i, got, want)
			}
		}
	}
}

// State/RestoreStream must continue the original sequence exactly, at
// any interruption point and across every draw kind (each consumes a
// whole number of source values, so source-level fast-forward is exact).
func TestStreamStateRestoreContinuesSequence(t *testing.T) {
	for _, cut := range []int{0, 1, 7, 100, 333} {
		orig := NewStream(7)
		for i := 0; i < cut; i++ {
			switch i % 4 {
			case 0:
				orig.Float64()
			case 1:
				orig.NormFloat64()
			case 2:
				orig.Intn(13)
			case 3:
				orig.Shuffle(9, func(i, j int) {})
			}
		}
		restored := RestoreStream(orig.State())
		if restored.State() != orig.State() {
			t.Fatalf("cut %d: restored state %+v != %+v", cut, restored.State(), orig.State())
		}
		for i := 0; i < 200; i++ {
			if got, want := restored.NormFloat64(), orig.NormFloat64(); got != want {
				t.Fatalf("cut %d, draw %d: %v != %v", cut, i, got, want)
			}
		}
	}
}

// A shuffle replayed from a restored stream must produce the identical
// permutation — the property minibatch training resume depends on.
func TestStreamStateShuffleReplay(t *testing.T) {
	s := NewStream(3)
	s.Shuffle(100, func(i, j int) {}) // advance past one epoch's shuffle
	st := s.State()

	perm1 := make([]int, 50)
	for i := range perm1 {
		perm1[i] = i
	}
	perm2 := append([]int(nil), perm1...)
	s.Shuffle(len(perm1), func(i, j int) { perm1[i], perm1[j] = perm1[j], perm1[i] })
	r := RestoreStream(st)
	r.Shuffle(len(perm2), func(i, j int) { perm2[i], perm2[j] = perm2[j], perm2[i] })
	for i := range perm1 {
		if perm1[i] != perm2[i] {
			t.Fatalf("permutations diverge at %d: %d != %d", i, perm1[i], perm2[i])
		}
	}
}

// TestDeriveIntoMatchesDerive pins the reseeded stream to the fresh one:
// a child that has already been drawn from, in every draw kind, and is
// then reseeded by DeriveInto must draw exactly what s.Derive(label)
// draws, and State/RestoreStream must put both at the same position.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	labels := []string{"", "host-0", "host-255", "coflow", "µ-label"}
	for _, seed := range []int64{0, 1, 7, -3, math.MaxInt64, math.MinInt64} {
		parentA, parentB := NewStream(seed), NewStream(seed)
		child := NewStream(99)
		for _, label := range labels {
			want := parentA.Derive(label)
			parentB.DeriveInto(child, label)
			if child.State() != want.State() || child.State().Draws != 0 {
				t.Fatalf("seed %d label %q: reseeded state %+v, fresh %+v", seed, label, child.State(), want.State())
			}
			for i := 0; i < 60; i++ {
				var got, exp string
				switch i % 6 {
				case 0:
					got, exp = fmt.Sprint(math.Float64bits(child.Float64())), fmt.Sprint(math.Float64bits(want.Float64()))
				case 1:
					got, exp = fmt.Sprint(child.Intn(97)), fmt.Sprint(want.Intn(97))
				case 2:
					got, exp = fmt.Sprint(math.Float64bits(child.NormFloat64())), fmt.Sprint(math.Float64bits(want.NormFloat64()))
				case 3:
					got, exp = fmt.Sprint(math.Float64bits(child.ExpFloat64())), fmt.Sprint(math.Float64bits(want.ExpFloat64()))
				case 4:
					got, exp = fmt.Sprint(child.rng.Int63()), fmt.Sprint(want.rng.Int63())
				case 5:
					g, w := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
					child.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
					want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
					got, exp = fmt.Sprint(g), fmt.Sprint(w)
				}
				if got != exp {
					t.Fatalf("seed %d label %q draw %d: reseeded %s, fresh %s", seed, label, i, got, exp)
				}
			}
			if child.State() != want.State() {
				t.Fatalf("seed %d label %q: reseeded at %+v, fresh at %+v", seed, label, child.State(), want.State())
			}
			restored := RestoreStream(child.State())
			for i := 0; i < 4; i++ {
				if g, w := restored.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d label %q: restored draw %d %v, fresh %v", seed, label, i, g, w)
				}
			}
		}
	}
}

// BenchmarkNewStream is the cost of seeding one stream, the price a
// fresh Derive pays per child and DeriveInto pays without the
// allocation.
func BenchmarkNewStream(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewStream(int64(i))
		}
	})
	b.Run("reseed", func(b *testing.B) {
		b.ReportAllocs()
		parent, child := NewStream(1), NewStream(0)
		for i := 0; i < b.N; i++ {
			parent.DeriveInto(child, "host-0")
		}
	})
}
