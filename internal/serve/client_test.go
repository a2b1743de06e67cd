package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer returns a client pointed at an arbitrary handler, for
// exercising the client's error paths without a real scheduler.
func stubServer(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

func TestClientBusyHonorsRetryAfter(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "17")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: errQueueFull.Error()})
	})
	_, err := c.Submit(tinySpec())
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("want *BusyError, got %v", err)
	}
	if busy.RetryAfter != 17*time.Second {
		t.Fatalf("RetryAfter = %v, want 17s", busy.RetryAfter)
	}
}

func TestClientBusyMissingRetryAfterDefaults(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: errQueueFull.Error()})
	})
	_, err := c.Submit(tinySpec())
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("want *BusyError, got %v", err)
	}
	if busy.RetryAfter != 5*time.Second {
		t.Fatalf("RetryAfter = %v, want default 5s", busy.RetryAfter)
	}
}

// TestClientDrainMidRequest submits against a real server whose scheduler
// drained between the client's connection and the request: admission is
// closed, so the daemon answers 503 and the client surfaces the drain
// reason rather than a bare status code.
func TestClientDrainMidRequest(t *testing.T) {
	ts, sched, _ := newTestServer(t, 4, 1)
	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sched.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(tinySpec())
	if err == nil {
		t.Fatal("submit against a draining daemon must fail")
	}
	if !strings.Contains(err.Error(), "draining") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("drain error not surfaced clearly: %v", err)
	}
}

func TestClientMalformedJSONBody(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
		}
		_, _ = w.Write([]byte(`{"id": "j1", truncated`))
	})
	_, err := c.Submit(tinySpec())
	if err == nil {
		t.Fatal("malformed body must error")
	}
	if !strings.Contains(err.Error(), "malformed response") {
		t.Fatalf("want a clear decode error, got: %v", err)
	}

	_, err = c.Job("j1")
	if err == nil || !strings.Contains(err.Error(), "malformed response") {
		t.Fatalf("getJSON decode error not surfaced: %v", err)
	}
}

func TestClientErrorBodyPlainText(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "kaboom", http.StatusInternalServerError)
	})
	_, err := c.Submit(tinySpec())
	if err == nil || !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "500") {
		t.Fatalf("non-JSON error body not surfaced: %v", err)
	}
}

// TestClientWaitOldDaemon runs Wait against a daemon that ignores
// wait_ms and answers every GET at once: the client must still pace its
// GETs, and its onProgress calls, at poll, send poll as wait_ms, and
// return the terminal status — a new client works with an old daemon.
func TestClientWaitOldDaemon(t *testing.T) {
	const poll, running = 40 * time.Millisecond, 3
	var gets atomic.Int32
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("wait_ms"); got != "40" {
			t.Errorf("GET %s: wait_ms %q, want the poll interval, 40", r.URL, got)
		}
		st := JobStatus{ID: "j000001", State: StateRunning}
		if gets.Add(1) > running {
			st.State, st.Result = StateDone, &Summary{FlowsStarted: 3}
		}
		writeJSON(w, http.StatusOK, st)
	})
	var seen []time.Time
	st, err := c.Wait(context.Background(), "j000001", poll, func(JobStatus) { seen = append(seen, time.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil || st.Result.FlowsStarted != 3 {
		t.Fatalf("Wait returned %+v, want the terminal status", st)
	}
	if len(seen) != running+1 {
		t.Fatalf("%d onProgress calls, want %d", len(seen), running+1)
	}
	for i := 1; i < len(seen); i++ {
		if gap := seen[i].Sub(seen[i-1]); gap < poll/2 {
			t.Errorf("onProgress calls %d and %d %v apart, want about poll (%v)", i-1, i, gap, poll)
		}
	}
}
