package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
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

// heldGet issues GET /v1/jobs/{id}?wait_ms=wait and returns the status
// code, the decoded status on 200, and how long the answer took.
func heldGet(t *testing.T, c *Client, id, wait string) (int, JobStatus, time.Duration) {
	t.Helper()
	t0 := time.Now()
	resp, err := c.HTTP.Get(c.Base + "/v1/jobs/" + id + "?wait_ms=" + wait)
	if err != nil {
		t.Error(err)
		return 0, JobStatus{}, time.Since(t0)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Error(err)
		}
	}
	return resp.StatusCode, st, time.Since(t0)
}

// TestHeldGet covers GET /v1/jobs/{id}?wait_ms=N: a held request returns
// as soon as its job ends, long before its wait runs out; a terminal
// job, an unknown id and a malformed wait are answered at once; and a
// wait over maxWait is clamped to it. "At once" means well under
// maxWait, the shortest a wrongly held request would take.
func TestHeldGet(t *testing.T) {
	ts, sched, _ := newTestServer(t, 4, 2)
	release := make(chan struct{})
	sched.runFn = func(ctx context.Context, j *Job) {
		ends := release
		if j.spec.Seed == 2 {
			ends = nil // the stuck job: it runs until the scheduler is killed
		}
		select {
		case <-ctx.Done():
			j.finish(StateCancelled, nil, ctx.Err().Error())
		case <-ends:
			j.finish(StateDone, &Summary{}, "")
		}
	}
	c := NewClient(ts.URL)
	// The stuck job never ends while the test runs: its held GET must
	// come back at maxWait, not at the 60 s it asked for.
	stuck, err := c.Submit(JobSpec{Clusters: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	finishing, err := c.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitHTTPState(t, c, stuck.ID, StateRunning)
	waitHTTPState(t, c, finishing.ID, StateRunning)
	type answer struct {
		code int
		st   JobStatus
		at   time.Time
		took time.Duration
	}
	get := func(id, wait string, out chan<- answer) {
		code, st, took := heldGet(t, c, id, wait)
		out <- answer{code, st, time.Now(), took}
	}
	clamped := make(chan answer, 1)
	go get(stuck.ID, "60000", clamped)

	held := make(chan answer, 1)
	go get(finishing.ID, "5000", held)
	time.Sleep(50 * time.Millisecond)
	select {
	case a := <-held:
		t.Fatalf("held GET answered before its job ended: %+v", a)
	default:
	}
	released := time.Now()
	close(release)
	a := <-held
	if a.code != http.StatusOK || a.st.State != StateDone {
		t.Fatalf("held GET: HTTP %d state %s, want 200 done", a.code, a.st.State)
	}
	if lag := a.at.Sub(released); lag > maxWait/4 {
		t.Errorf("held GET answered %v after the job ended, want a few ms", lag)
	}

	for _, tc := range []struct {
		id, wait string
		code     int
	}{
		{finishing.ID, "5000", http.StatusOK}, // terminal
		{"j424242", "5000", http.StatusNotFound},
		{finishing.ID, "soon", http.StatusBadRequest},
		{finishing.ID, "-1", http.StatusBadRequest},
		{finishing.ID, "1.5", http.StatusBadRequest},
		{stuck.ID, "x", http.StatusBadRequest},
	} {
		code, st, took := heldGet(t, c, tc.id, tc.wait)
		if code != tc.code || took > maxWait/4 {
			t.Errorf("GET %s?wait_ms=%s: HTTP %d after %v, want %d at once", tc.id, tc.wait, code, took, tc.code)
		}
		if code == http.StatusOK && st.State != StateDone {
			t.Errorf("GET %s?wait_ms=%s: state %s, want done", tc.id, tc.wait, st.State)
		}
	}

	a = <-clamped
	if a.code != http.StatusOK || a.st.State != StateRunning {
		t.Errorf("clamped GET: HTTP %d state %s, want 200 running", a.code, a.st.State)
	}
	if a.took < maxWait-50*time.Millisecond || a.took > maxWait+time.Second {
		t.Errorf("GET with wait_ms=60000 held %v, want it clamped to %v", a.took, maxWait)
	}
}

// TestHeldGetReleasedByClient: a client that gives up on a held GET
// frees its handler at once, not when the wait runs out. The test counts
// the handlers in flight, and the goroutine count, taken before any
// connection is made, must come back to its baseline too, both well
// before maxWait.
func TestHeldGetReleasedByClient(t *testing.T) {
	sched, release := stubScheduler(t, 1, 1)
	defer close(release)
	var active atomic.Int32
	h := NewServer(sched, newTestRegistry(t, 2)).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		active.Add(1)
		defer active.Add(-1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	j, err := sched.Submit(JobSpec{Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	base := runtime.NumGoroutine()

	c := NewClient(ts.URL)
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, j.ID(), 5*time.Second, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on a running job with a 100 ms context: %v, want the deadline", err)
	}
	for active.Load() > 0 || runtime.NumGoroutine() > base {
		if time.Since(t0) > maxWait/2 {
			t.Fatalf("%v after the client gave up: %d handlers in flight, %d goroutines against a baseline of %d",
				time.Since(t0), active.Load(), runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
