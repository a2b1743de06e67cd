package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named series grouped into metric families and renders
// them in Prometheus text format. Registration takes a lock; updates to
// the registered series never do (they are plain atomics), and scrapes
// snapshot under the lock without blocking updaters.
//
// A series name is `family` or `family{label="value",...}`: several
// labeled series may share one family (one HELP/TYPE line, contiguous
// samples), but a family holds exactly one kind. Getter methods are
// idempotent — asking for an existing name returns the existing series —
// so package-level instrumentation can never double-register. The
// Register* methods instead *replace* the cell behind a name, which is
// how per-instance components (one scheduler per daemon, many per test
// binary) expose the live instance without collisions.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byFamily map[string]*family
}

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

type family struct {
	name   string
	help   string
	kind   seriesKind
	series []*seriesEntry
	byKey  map[string]*seriesEntry
}

type seriesEntry struct {
	labels string // `phase="train"` — no braces, possibly empty
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byFamily: make(map[string]*family)}
}

// splitName separates `family{labels}` into its parts. Malformed names
// panic: metric names are compile-time constants and a typo should fail
// loudly at init, not scrape as garbage.
func splitName(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	if !strings.HasSuffix(name, "}") || i == 0 {
		panic(fmt.Sprintf("obs: malformed series name %q", name))
	}
	return name[:i], name[i+1 : len(name)-1]
}

func (r *Registry) lookup(name, help string, kind seriesKind) (*family, *seriesEntry, bool) {
	fam, labels := splitName(name)
	f, ok := r.byFamily[fam]
	if !ok {
		f = &family{name: fam, help: help, kind: kind, byKey: make(map[string]*seriesEntry)}
		r.families = append(r.families, f)
		r.byFamily[fam] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: family %q registered as %s, requested as %s", fam, f.kind, kind))
	}
	if e, ok := f.byKey[labels]; ok {
		return f, e, true
	}
	e := &seriesEntry{labels: labels}
	f.series = append(f.series, e)
	f.byKey[labels] = e
	return f, e, false
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, e, existed := r.lookup(name, help, kindCounter)
	if !existed {
		e.ctr = &Counter{}
	}
	return e.ctr
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, e, existed := r.lookup(name, help, kindGauge)
	if !existed {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// GaugeFunc registers (or replaces) a gauge whose value is computed at
// scrape time — the natural shape for queue depths and pool occupancy,
// which would otherwise need hot-path updates nobody reads.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, e, _ := r.lookup(name, help, kindGaugeFunc)
	e.fn = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds if new. An existing histogram's bounds win: all
// series of a family must share one bucket layout.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, e, existed := r.lookup(name, help, kindHistogram)
	if !existed {
		if len(f.series) > 1 {
			// Sibling series exists: inherit its layout for consistency.
			for _, sib := range f.series {
				if sib.hist != nil {
					bounds = sib.hist.Bounds()
					break
				}
			}
		}
		e.hist = NewHistogram(bounds)
	}
	return e.hist
}

// RegisterCounter binds an existing counter cell to name, replacing any
// previous binding. Used by per-instance components (serve.Scheduler,
// serve.Registry) so /metrics and /stats read the same atomics.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, e, _ := r.lookup(name, help, kindCounter)
	e.ctr = c
}

// RegisterGauge binds an existing gauge cell to name, replacing any
// previous binding.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, e, _ := r.lookup(name, help, kindGauge)
	e.gauge = g
}

// RegisterHistogram binds an existing histogram to name, replacing any
// previous binding.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, e, _ := r.lookup(name, help, kindHistogram)
	e.hist = h
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families contiguous, HELP/TYPE once per family.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, e := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s %d\n", sampleName(f.name, e.labels), e.ctr.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s %d\n", sampleName(f.name, e.labels), e.gauge.Value())
			case kindGaugeFunc:
				fmt.Fprintf(bw, "%s %s\n", sampleName(f.name, e.labels), formatFloat(e.fn()))
			case kindHistogram:
				writeHistogram(bw, f.name, e.labels, e.hist)
			}
		}
	}
	return bw.Flush()
}

func sampleName(fam, labels string) string {
	if labels == "" {
		return fam
	}
	return fam + "{" + labels + "}"
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeHistogram(w io.Writer, fam, labels string, h *Histogram) {
	cum := h.Cumulative()
	bounds := h.Bounds()
	for i, b := range bounds {
		le := joinLabels(labels, `le="`+formatFloat(b)+`"`)
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", fam, le, cum[i])
	}
	inf := joinLabels(labels, `le="+Inf"`)
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", fam, inf, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", fam, braced(labels), formatFloat(h.Sum()))
	// _count mirrors the +Inf bucket from the same snapshot, so the
	// invariant parsers check (count == cumulative +Inf) always holds.
	fmt.Fprintf(w, "%s_count%s %d\n", fam, braced(labels), cum[len(cum)-1])
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
