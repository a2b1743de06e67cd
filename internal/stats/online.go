package stats

import (
	"math"
	"sort"
)

// EWMA is an exponentially weighted moving average, the smoothing primitive
// behind the "EWMA of time since last packet" feature (paper Table 1) and
// the congestion-state estimator.
type EWMA struct {
	Alpha float64 // weight of the new sample, in (0, 1]
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given new-sample weight.
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Update folds a sample into the average and returns the new value.
func (e *EWMA) Update(v float64) float64 {
	if !e.init {
		e.value = v
		e.init = true
		return v
	}
	e.value = e.Alpha*v + (1-e.Alpha)*e.value
	return e.value
}

// Value returns the current average (zero before any update).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample was folded in.
func (e *EWMA) Initialized() bool { return e.init }

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics. It sorts a copy; callers on hot
// paths should sort once and use quantileSorted.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile for an already ascending-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of values (zero if empty).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
