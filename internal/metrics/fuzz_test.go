package metrics

import (
	"math"
	"testing"
)

// sanitize clips fuzz inputs to finite values; the NaN/Inf cases are
// asserted separately with explicit expectations.
func sanitize(vs []float64) []float64 {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// FuzzW1 checks the metric axioms W1 must satisfy on arbitrary finite
// samples, including unequal sample counts (the piecewise-CDF path):
// non-negativity, symmetry, and identity of indiscernibles.
func FuzzW1(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0)
	f.Add(0.0, 0.0, 0.0, -1.0, 1.0)
	f.Add(1e-9, 1e9, -1e9, 0.5, 0.25)
	f.Fuzz(func(t *testing.T, a1, a2, a3, b1, b2 float64) {
		a := sanitize([]float64{a1, a2, a3})
		b := sanitize([]float64{b1, b2}) // len(a) != len(b) when all finite
		if len(a) == 0 || len(b) == 0 {
			if !math.IsNaN(W1(a, b)) {
				t.Fatal("W1 on empty input must be NaN")
			}
			return
		}
		ab, ba := W1(a, b), W1(b, a)
		if math.IsNaN(ab) || ab < 0 {
			t.Fatalf("W1(a,b) = %v, want finite >= 0 (a=%v b=%v)", ab, a, b)
		}
		if math.Abs(ab-ba) > 1e-9*(1+math.Abs(ab)) {
			t.Fatalf("W1 not symmetric: %v vs %v", ab, ba)
		}
		if self := W1(a, a); math.Abs(self) > 1e-12 {
			t.Fatalf("W1(a,a) = %v, want 0", self)
		}
		// Duplicating every sample leaves the empirical CDF unchanged.
		aa := append(append([]float64(nil), a...), a...)
		if d := W1(aa, b); math.Abs(d-ab) > 1e-9*(1+math.Abs(ab)) {
			t.Fatalf("W1 changed under sample duplication: %v vs %v", d, ab)
		}
		// KS shares the merged-support walk; check its axioms too.
		ks := KS(a, b)
		if math.IsNaN(ks) || ks < 0 || ks > 1 {
			t.Fatalf("KS(a,b) = %v, want in [0,1]", ks)
		}
		if math.Abs(ks-KS(b, a)) > 1e-12 {
			t.Fatal("KS not symmetric")
		}
	})
}

func TestW1NaNInput(t *testing.T) {
	nan := math.NaN()
	cases := [][2][]float64{
		{{nan, 1, 2}, {3, 4}},        // unequal counts: would stall the CDF walk unguarded
		{{1, 2}, {nan, 3}},           // equal counts
		{{nan}, {nan, nan}},          // all-NaN
		{{1, 2, 3}, {4, nan}},        // NaN in shorter side
		{{math.Inf(1), nan}, {1, 2}}, // NaN alongside Inf
	}
	for _, c := range cases {
		if !math.IsNaN(W1(c[0], c[1])) {
			t.Fatalf("W1(%v, %v) must be NaN", c[0], c[1])
		}
		if !math.IsNaN(KS(c[0], c[1])) {
			t.Fatalf("KS(%v, %v) must be NaN", c[0], c[1])
		}
	}
}
