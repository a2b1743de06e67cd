package main

import (
	"encoding/json"
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sortedNames[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: the program has %d, BENCHMARK.json has %d", what, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: program %q, BENCHMARK.json %q", what, got[i], want[i])
		}
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the tables in main.go
// from drifting apart: same workloads, same metrics, same units, and
// within the limits the benchmark's contract sets.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	sameNames(t, "workloads",
		sortedNames(workloads, func(w workloadDef) string { return w.name }),
		sortedNames(spec.Workloads, func(w specWorkload) string { return w.Name }))

	units := map[string]string{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	name := func(m metricDef) string { return m.name }
	specName := func(m specMetric) string { return m.Name }
	sameNames(t, "end-to-end metrics", sortedNames(endToEnd, name), sortedNames(spec.EndToEnd, specName))
	sameNames(t, "per-layer metrics", sortedNames(perLayer, name), sortedNames(spec.PerLayer, specName))
	if units["setup_s"] != "s" {
		t.Errorf("setup_s must be an end-to-end metric in seconds")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is outside the allowed syntax", m.name)
		}
		if units[m.name] != m.unit {
			t.Errorf("%s: program reports %q, BENCHMARK.json says %q", m.name, m.unit, units[m.name])
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is outside the allowed syntax", w.name)
		}
	}
}

// resultOf runs one workload at smoke size for one timed op and decodes
// the line the driver would read.
func resultOf(t *testing.T, def *workloadDef, trace bool) (*run, map[string]float64) {
	t.Helper()
	r := newRun(def, smokeSize, 1, 0.001, trace, t.TempDir())
	if err := r.execute(); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(r.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted != 2 {
		t.Errorf("correct=%v attempted=%d failed=%d (%v), want a warm-up and one op, both good",
			line.Correct, line.Attempted, line.Failed, r.failures)
	}
	values := map[string]float64{}
	for name, m := range line.Metrics {
		values[name] = m.Value
	}
	return r, values
}

// TestSmoke runs every workload once untraced and once traced and checks
// what the driver and a reader of the trace rely on.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			_, e2e := resultOf(t, def, false)
			if len(e2e) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(e2e), len(endToEnd))
			}
			for _, m := range endToEnd {
				if e2e[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, e2e[m.name])
				}
			}

			r, layer := resultOf(t, def, true)
			if len(layer) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(layer), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := layer[m.name]; !ok {
					t.Errorf("traced run does not report %s", m.name)
				}
			}
			for _, probe := range []string{"sim.kernel_events_per_s", "ml.infer_ns_per_step",
				"durable.append_sync_ms", "serve.registry_get_disk_ms", "bench.op_raw_s"} {
				if layer[probe] <= 0 {
					t.Errorf("%s = %v, want > 0", probe, layer[probe])
				}
			}
			checkSpans(t, r.spans)
		})
	}
}

// checkSpans requires the trace to be a forest of ops: every child lies
// inside its parent, shares its op id, and no parent is busier than it
// is long.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	const slack = 1e-6 // seconds; float rounding of clock reads
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := map[int]span{}
	inChildren := map[int]float64{}
	roots := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d %s: parent %d is not in the trace", s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			t.Errorf("span %d %s: op %d, parent's op %d", s.ID, s.Name, s.Op, p.Op)
		case s.Start < p.Start-slack || s.End > p.End+slack:
			t.Errorf("span %d %s [%v, %v] leaves its parent [%v, %v]", s.ID, s.Name, s.Start, s.End, p.Start, p.End)
		}
		inChildren[s.Parent] += s.End - s.Start
	}
	if roots == 0 {
		t.Error("no op span in the trace")
	}
	for id, busy := range inChildren {
		if p := byID[id]; p.End-p.Start-busy < -slack {
			t.Errorf("span %d %s: self time %v is negative", id, p.Name, p.End-p.Start-busy)
		}
	}
}

func TestScaledRemovesInputSize(t *testing.T) {
	// Two ops at the same speed per unit of work, one on twice the work.
	small := opRec{total: 1.5, phases: []phase{{sec: 1, bytes: 100, work: 10, nominal: 20}, {sec: 0.25}}}
	large := opRec{total: 2.5, phases: []phase{{sec: 2, bytes: 200, work: 20, nominal: 20}, {sec: 0.25}}}
	s1, b1 := small.scaled()
	s2, b2 := large.scaled()
	if s1 != s2 || b1 != b2 || s1 != 2.5 || b1 != 200 {
		t.Errorf("scaled() = (%v, %v) and (%v, %v), want (2.5, 200) twice", s1, b1, s2, b2)
	}
}

func TestTimingsAtReferenceSpeed(t *testing.T) {
	// A host that takes twice the reference time per calibration reports
	// half its wall-clock; allocated bytes are not a timing and stay.
	r := newRun(&workloads[0], smokeSize, 1, 1, false, t.TempDir())
	r.setupSpeed.secs = []float64{2 * calibReference}
	r.loopSpeed.secs = []float64{2 * calibReference, 2 * calibReference, 3 * calibReference}
	r.setups = []float64{3}
	r.ops = []*opRec{{total: 1.5, phases: []phase{{sec: 1, bytes: 100e6}}}}
	got := r.endToEndValues()
	if got["setup_s"][0] != 1.5 || got["op_s"][0] != 0.75 || got["alloc_mb_per_op"][0] != 100 {
		t.Errorf("endToEndValues() = %v, want setup_s 1.5, op_s 0.75, alloc_mb_per_op 100", got)
	}
}
