package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinySpec is the smallest job that exercises the full pipeline: a
// 2-cluster estimate over 1-rack clusters with a thumbnail model.
func tinySpec() JobSpec {
	return JobSpec{
		Clusters: 2, Racks: 1, Hosts: 2, Aggs: 1, CoresPerAgg: 1,
		WorkloadMs: 40, RunMs: 60, SmallRunMs: 50,
		Window: 4, Hidden: 6, Epochs: 1,
	}
}

func newTestServer(t *testing.T, queueDepth, workers int) (*httptest.Server, *Scheduler, *Registry) {
	t.Helper()
	reg := newTestRegistry(t, 4)
	sched := newTestScheduler(t, reg, queueDepth, workers, nil)
	ts := httptest.NewServer(NewServer(sched, reg).Handler())
	t.Cleanup(ts.Close)
	return ts, sched, reg
}

// TestServerEndToEnd drives the real pipeline over HTTP: submit, poll to
// completion, resubmit the identical job, and observe the second run
// skipping training via a registry hit — the amortization the subsystem
// exists for.
func TestServerEndToEnd(t *testing.T) {
	ts, _, _ := newTestServer(t, 8, 2)
	c := NewClient(ts.URL)

	if !c.Healthy() {
		t.Fatal("daemon not healthy")
	}

	st, err := c.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cold, err := c.Wait(ctx, st.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != StateDone {
		t.Fatalf("cold job: state=%s err=%q", cold.State, cold.Error)
	}
	if cold.Result == nil || cold.Result.CacheHit {
		t.Fatalf("cold job result = %+v, want a non-cache-hit result", cold.Result)
	}
	if cold.Result.FCTSeconds.N == 0 {
		t.Fatal("cold job produced no FCT samples")
	}

	st2, err := c.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ModelKey != cold.ModelKey {
		t.Fatalf("identical specs keyed differently: %s vs %s", st2.ModelKey, cold.ModelKey)
	}
	warm, err := c.Wait(ctx, st2.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != StateDone {
		t.Fatalf("warm job: state=%s err=%q", warm.State, warm.Error)
	}
	if warm.Result == nil || !warm.Result.CacheHit {
		t.Fatal("warm job did not hit the registry")
	}
	// Identical spec ⇒ identical estimate, cold or warm: the cached
	// artifact round-trips bitwise (core round-trip test) and the
	// composition is seeded.
	if warm.Result.FCTSeconds != cold.Result.FCTSeconds {
		t.Fatalf("warm FCT summary %+v != cold %+v", warm.Result.FCTSeconds, cold.Result.FCTSeconds)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Registry.Hits() == 0 {
		t.Fatalf("registry stats show no hits after resubmission: %+v", stats.Registry)
	}
	if stats.Scheduler.Done != 2 {
		t.Fatalf("scheduler done = %d, want 2", stats.Scheduler.Done)
	}
}

// TestServerAdmissionAndErrors covers the HTTP error surface with a
// stubbed runner: 429 + Retry-After on overflow, 400 on garbage, 404 on
// unknown IDs, cancellation via DELETE, and 503 health once draining.
func TestServerAdmissionAndErrors(t *testing.T) {
	ts, sched, _ := newTestServer(t, 1, 1)
	release := make(chan struct{})
	sched.runFn = func(ctx context.Context, j *Job) {
		select {
		case <-ctx.Done():
			j.finish(StateCancelled, nil, ctx.Err().Error())
		case <-release:
			j.finish(StateDone, &Summary{}, "")
		}
	}
	c := NewClient(ts.URL)

	// Garbage spec → 400.
	resp, err := c.HTTP.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage spec: HTTP %d, want 400", resp.StatusCode)
	}

	// Out-of-range spec → 400 naming the field, before admission.
	resp, err = c.HTTP.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"hidden":1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(string(msg), "hidden") {
		t.Fatalf("oversized hidden: HTTP %d %s, want 400 naming hidden", resp.StatusCode, msg)
	}

	// Body over 1 MiB → 413, rejected while reading.
	big := `{"protocol":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, err = c.HTTP.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	if n := len(sched.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted from rejected requests", n)
	}

	// Unknown job → 404.
	if _, err := c.Job("j424242"); err == nil {
		t.Fatal("unknown job lookup succeeded")
	}

	// Fill worker + queue, then overflow → BusyError with Retry-After.
	first, err := c.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitHTTPState(t, c, first.ID, StateRunning)
	if _, err := c.Submit(JobSpec{Clusters: 4}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(JobSpec{Clusters: 4})
	busy, ok := err.(*BusyError)
	if !ok {
		t.Fatalf("overflow submit: err = %v, want *BusyError", err)
	}
	if busy.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v, want >= 1s", busy.RetryAfter)
	}

	// DELETE cancels the running job; poll shows terminal cancelled.
	cancelHTTP(t, c, first.ID)
	waitHTTPState(t, c, first.ID, StateCancelled)

	// Drain: health flips to 503 and submissions are rejected.
	close(release)
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Healthy() {
		t.Fatal("healthz still 200 while draining")
	}
	if _, err := c.Submit(JobSpec{Clusters: 4}); err == nil {
		t.Fatal("submission accepted while draining")
	}
}

func waitHTTPState(t *testing.T, c *Client, id string, want State) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		st, err := c.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never reached %s (now %s)", id, want, st.State)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cancelHTTP cancels a job with DELETE /v1/jobs/{id}.
func cancelHTTP(t *testing.T, c *Client, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, c.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE %s: status %d, want 202", id, resp.StatusCode)
	}
}

// TestServerJobCancelledMidRun runs a real composition long enough to
// cancel mid-flight and asserts the partial-results contract over HTTP.
func TestServerJobCancelledMidRun(t *testing.T) {
	ts, _, _ := newTestServer(t, 4, 1)
	c := NewClient(ts.URL)

	spec := tinySpec()
	spec.Clusters = 4
	spec.RunMs = 30_000 // far longer than the test will allow
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the compose phase is reporting progress, then cancel.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for {
		cur, err := c.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress.Phase == "compose" && cur.Progress.Events > 0 {
			break
		}
		if cur.State == StateDone || cur.State == StateFailed {
			t.Fatalf("job finished before it could be cancelled: %+v", cur)
		}
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for compose progress")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancelHTTP(t, c, st.ID)
	final, err := c.Wait(ctx, st.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Result == nil || !final.Result.Cancelled {
		t.Fatal("cancelled job did not surface partial results with the Cancelled flag")
	}
	if final.Result.Events == 0 {
		t.Fatal("partial results lost all processed events")
	}
}
