package ml

// This file implements the columnar dataset layout. SampleView stores
// the underlying packet stream exactly once — one contiguous row-major
// feature matrix — and expresses each sample's window as an index range
// over it, with the early-window zero padding resolved by index math
// against a single shared zero row. Every consumer (the trainer and
// Evaluate) reads it through the SampleSource interface below.

// SampleSource is the trainer-facing read interface over a dataset.
// *SampleView is the production implementation; the window-of-slices
// reference layout the parity tests train against implements it in
// fixtures_test.go. Windows are uniform (Steps rows of Width features);
// Row returns one window row without copying.
type SampleSource interface {
	// Len is the number of samples.
	Len() int
	// Steps is the uniform window length shared by all samples.
	Steps() int
	// Row returns window row st of sample i without copying. The slice
	// must be treated as read-only and is only valid until the next
	// call for sources that synthesize rows.
	Row(i, st int) []float64
	// Target returns sample i's training targets.
	Target(i int) (latency float64, dropped, ecn bool)
}

// SampleView is the columnar dataset: every packet's feature row stored
// exactly once in a flat row-major matrix, per-sample targets in
// parallel columns, and windows expressed as index ranges. Sample i's
// window is the Window consecutive rows ending at global row Start+i;
// rows with negative global index (the early-window padding) resolve to
// a shared zero row instead of materialized zero vectors.
//
// A view built by NewSampleBank owns its matrix; Slice returns
// sub-views sharing it. Do not append to a view that has live slices.
type SampleView struct {
	Width  int // features per row
	Window int // rows per sample window

	// Feats is the shared row-major feature matrix: row g occupies
	// Feats[g*Width : (g+1)*Width]. Sub-views index the full matrix, so
	// a chronological test split still sees its pre-cut history.
	Feats []float64

	// Per-sample targets (length = Len()).
	Latency []float64
	Dropped []bool
	ECN     []bool

	// Start maps sample 0 to its final window row's global index: row
	// st of sample i is global row Start + i + st - Window + 1.
	Start int

	zero []float64 // shared padding row, len Width
}

// NewSampleBank returns an empty view preallocated for capacity samples
// of width features over window-row windows. The caller appends one row
// per sample (a row appended to Feats, then PushTarget).
func NewSampleBank(width, window, capacity int) *SampleView {
	return &SampleView{
		Width:   width,
		Window:  window,
		Feats:   make([]float64, 0, capacity*width),
		Latency: make([]float64, 0, capacity),
		Dropped: make([]bool, 0, capacity),
		ECN:     make([]bool, 0, capacity),
		zero:    make([]float64, width),
	}
}

// PushTarget records the targets of the next sample; the caller must
// have just appended exactly one Width-long feature row to Feats.
func (v *SampleView) PushTarget(latency float64, dropped, ecn bool) {
	v.Latency = append(v.Latency, latency)
	v.Dropped = append(v.Dropped, dropped)
	v.ECN = append(v.ECN, ecn)
}

// Len returns the number of samples.
func (v *SampleView) Len() int { return len(v.Latency) }

// Steps returns the window length (uniform by construction).
func (v *SampleView) Steps() int { return v.Window }

// zeroRow returns the shared padding row, building it lazily for views
// assembled by hand rather than through NewSampleBank. Views on shared
// hot paths always come from NewSampleBank (or Slice, which inherits
// the row), so the lazy branch never races.
func (v *SampleView) zeroRow() []float64 {
	if v.zero == nil {
		v.zero = make([]float64, v.Width)
	}
	return v.zero
}

// Row returns window row st of sample i by index math: global row
// Start+i+st-Window+1, or the shared zero row for the padded prefix of
// early windows. No copy is made.
func (v *SampleView) Row(i, st int) []float64 {
	g := v.Start + i + st - v.Window + 1
	if g < 0 {
		return v.zeroRow()
	}
	return v.Feats[g*v.Width : (g+1)*v.Width]
}

// WindowAppend appends sample i's window rows (aliases into the matrix,
// zero row for padding) to buf and returns it: the [][]float64 window
// Model.Forward takes.
func (v *SampleView) WindowAppend(buf [][]float64, i int) [][]float64 {
	for st := 0; st < v.Window; st++ {
		buf = append(buf, v.Row(i, st))
	}
	return buf
}

// Target returns sample i's training targets.
func (v *SampleView) Target(i int) (latency float64, dropped, ecn bool) {
	return v.Latency[i], v.Dropped[i], v.ECN[i]
}

// Slice returns the sub-view of samples [lo, hi). The feature matrix
// and zero row are shared, not copied — a chronological test split
// keeps every row of history preceding its cut visible through Row.
func (v *SampleView) Slice(lo, hi int) *SampleView {
	return &SampleView{
		Width:   v.Width,
		Window:  v.Window,
		Feats:   v.Feats,
		Latency: v.Latency[lo:hi],
		Dropped: v.Dropped[lo:hi],
		ECN:     v.ECN[lo:hi],
		Start:   v.Start + lo,
		zero:    v.zero,
	}
}

// WithLatency returns a shallow view sharing everything but the latency
// column, so a caller can retarget latencies against another
// normalization without copying the matrix.
func (v *SampleView) WithLatency(latency []float64) *SampleView {
	if len(latency) != v.Len() {
		panic("ml: WithLatency length mismatch")
	}
	w := *v
	w.Latency = latency
	return &w
}

// Bytes reports the resident size of the view's own storage (matrix +
// target columns), for the dataset gauges.
func (v *SampleView) Bytes() int {
	return 8*len(v.Feats) + 8*len(v.Latency) + len(v.Dropped) + len(v.ECN)
}
