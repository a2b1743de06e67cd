package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseProm parses Prometheus text exposition (version 0.0.4) into
// sample name → value, validating the structural invariants a scraper
// relies on: every sample line is `name[{labels}] value`, HELP/TYPE
// lines precede their family's samples, families are contiguous, and
// histogram cumulative buckets are monotone with _count == +Inf bucket.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	seenFamily := make(map[string]bool)
	lastFamily := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		if _, dup := samples[name]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, name)
		}
		samples[name] = val

		fam := name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		base := fam
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if h := strings.TrimSuffix(fam, suf); h != fam && typed[h] == "histogram" {
				base = h
			}
		}
		if typed[base] == "" {
			t.Fatalf("line %d: sample %q has no TYPE line", ln+1, name)
		}
		if base != lastFamily && seenFamily[base] {
			t.Fatalf("line %d: family %q not contiguous", ln+1, base)
		}
		seenFamily[base] = true
		lastFamily = base
	}
	// Histogram invariants per labeled series.
	for name, typ := range typed {
		if typ != "histogram" {
			continue
		}
		for sample := range samples {
			if !strings.HasPrefix(sample, name+"_count") {
				continue
			}
			labels := strings.TrimPrefix(sample, name+"_count")
			inf := name + `_bucket{`
			if labels != "" {
				inf += strings.Trim(labels, "{}") + ","
			}
			inf += `le="+Inf"}`
			infVal, ok := samples[inf]
			if !ok {
				t.Fatalf("histogram %s%s missing +Inf bucket (want %s)", name, labels, inf)
			}
			if samples[sample] != infVal {
				t.Fatalf("histogram %s%s: _count %v != +Inf bucket %v",
					name, labels, samples[sample], infVal)
			}
		}
	}
	return samples
}

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(body))
}

// TestMetricsEndToEnd boots the real daemon stack, runs jobs over HTTP
// while goroutines scrape /metrics concurrently, and asserts that the
// exposition parses, spans all four instrumented layers with at least 20
// series, and that counters only ever move up — under -race this is also
// the data-race check for every hot-path instrumentation site.
func TestMetricsEndToEnd(t *testing.T) {
	ts, _, _ := newTestServer(t, 8, 2)
	c := NewClient(ts.URL)

	// Concurrent scrapers racing the job pipeline, each checking
	// per-scraper counter monotonicity.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[string]float64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				for _, line := range strings.Split(string(body), "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					sp := strings.LastIndexByte(line, ' ')
					name := line[:sp]
					if !strings.HasSuffix(name, "_total") && !strings.Contains(name, "_total{") &&
						!strings.Contains(name, "_bucket{") && !strings.Contains(name, "_count") {
						continue // gauges may go down
					}
					v, err := strconv.ParseFloat(line[sp+1:], 64)
					if err != nil {
						errCh <- fmt.Errorf("bad sample %q: %v", line, err)
						return
					}
					if prev, ok := last[name]; ok && v < prev {
						errCh <- fmt.Errorf("counter %s went backwards: %v -> %v", name, prev, v)
						return
					}
					last[name] = v
				}
			}
		}()
	}

	// Two identical jobs end-to-end: a cold train+compose then a warm
	// registry hit, exercising serve, core, ml, and sim counters.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 2; i++ {
		st, err := c.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("job %d: state=%s err=%q", i, final.State, final.Error)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	samples := parseProm(t, mustGet(t, ts.URL+"/metrics"))

	// The acceptance bar: >= 20 named series spanning every layer.
	prefixes := map[string]int{}
	distinct := map[string]bool{}
	for name := range samples {
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base,
			"_bucket"), "_sum"), "_count")
		distinct[base] = true
		for _, p := range []string{"mimicnet_sim_", "mimicnet_ml_", "mimicnet_core_", "mimicnet_serve_"} {
			if strings.HasPrefix(base, p) {
				prefixes[p]++
			}
		}
	}
	if len(distinct) < 20 {
		t.Fatalf("only %d distinct series families, want >= 20: %v", len(distinct), keys(distinct))
	}
	for _, p := range []string{"mimicnet_sim_", "mimicnet_ml_", "mimicnet_core_", "mimicnet_serve_"} {
		if prefixes[p] == 0 {
			t.Fatalf("no series under %s*", p)
		}
	}

	// The pipeline must have visibly moved the layer counters.
	for _, want := range []string{
		"mimicnet_sim_events_total",
		"mimicnet_ml_train_epochs_total",
		"mimicnet_ml_pool_inline_total", // default shapes sit under the dispatch floor
		"mimicnet_core_inference_steps_total",
		"mimicnet_serve_jobs_submitted_total",
	} {
		if samples[want] <= 0 {
			t.Fatalf("%s = %v after two jobs, want > 0", want, samples[want])
		}
	}
	// Inline and fanned-out Range calls are exposed side by side, so a
	// scrape answers whether the ml pool is paying for itself.
	for _, fam := range []string{"mimicnet_ml_pool_dispatches_total", "mimicnet_ml_pool_submits_total"} {
		if _, ok := samples[fam]; !ok {
			t.Fatalf("%s missing from /metrics", fam)
		}
	}
	if got := samples[`mimicnet_serve_jobs_finished_total{state="done"}`]; got != 2 {
		t.Fatalf("jobs done = %v, want 2", got)
	}
	if got := samples[`mimicnet_serve_registry_lookups_total{result="miss"}`]; got != 1 {
		t.Fatalf("registry misses = %v, want 1 (cold job only)", got)
	}
	if hits := samples[`mimicnet_serve_registry_lookups_total{result="mem_hit"}`]; hits < 1 {
		t.Fatalf("registry mem hits = %v, want >= 1 (warm job)", hits)
	}
	if cnt := samples[`mimicnet_serve_job_phase_seconds_count{phase="compose"}`]; cnt != 2 {
		t.Fatalf("compose phase observations = %v, want 2", cnt)
	}
}

func mustGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestMetricsEndpointShape checks the scrape surface directly: content
// type, pprof reachability, and that /stats and /metrics agree on the
// scheduler counters (one source of truth).
func TestMetricsEndpointShape(t *testing.T) {
	ts, sched, reg := newTestServer(t, 8, 1)
	c := NewClient(ts.URL)

	st, err := c.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if final, err := c.Wait(ctx, st.ID, 10*time.Millisecond, nil); err != nil || final.State != StateDone {
		t.Fatalf("job: %v / %+v", err, final)
	}

	samples := scrape(t, ts.URL)
	if got := samples[`mimicnet_serve_jobs_finished_total{state="done"}`]; got != float64(sched.Stats().Done) {
		t.Fatalf("/metrics done=%v disagrees with /stats done=%d", got, sched.Stats().Done)
	}
	if got := samples[`mimicnet_serve_registry_lookups_total{result="miss"}`]; got != float64(reg.Stats().Misses) {
		t.Fatalf("/metrics misses=%v disagrees with /stats misses=%d", got, reg.Stats().Misses)
	}
	if got := samples["mimicnet_serve_queue_capacity"]; got != 8 {
		t.Fatalf("queue capacity = %v, want 8", got)
	}
	if up := samples["mimicnet_serve_uptime_seconds"]; up <= 0 {
		t.Fatalf("uptime = %v, want > 0", up)
	}

	// pprof is wired on the same mux.
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("/debug/pprof/ index missing profile listing")
	}
}
