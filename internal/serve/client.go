package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the tiny HTTP client used by `cmd/mimicnet -server` (and the
// smoke harness) to delegate estimates to a running mimicnetd.
type Client struct {
	Base string // e.g. "http://127.0.0.1:9090"
	HTTP *http.Client
}

// NewClient returns a client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// BusyError reports a 429 rejection and how long the daemon suggested
// waiting before retrying.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: daemon busy, retry after %v", e.RetryAfter)
}

func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("serve: %s (HTTP %d)", eb.Error, resp.StatusCode)
	}
	return fmt.Errorf("serve: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: malformed response from %s: %w", path, err)
	}
	return nil
}

// Submit enqueues a job. A full queue surfaces as *BusyError carrying the
// daemon's Retry-After hint.
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.HTTP.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return JobStatus{}, fmt.Errorf("serve: malformed response from /v1/jobs: %w", err)
		}
		return st, nil
	case http.StatusTooManyRequests:
		sec, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if sec <= 0 {
			sec = 5
		}
		return JobStatus{}, &BusyError{RetryAfter: time.Duration(sec) * time.Second}
	default:
		return JobStatus{}, decodeError(resp)
	}
}

// Job fetches one job's status.
func (c *Client) Job(id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON(context.Background(), "/v1/jobs/"+id, &st)
	return st, err
}

// Wait follows the job until it reaches a terminal state, invoking
// onProgress (if non-nil) after each status it reads. poll is the
// progress cadence: each GET asks the daemon to hold the answer for up
// to poll (wait_ms), so the terminal status arrives as soon as the
// daemon has it rather than up to one poll later. Against a daemon that
// answers at once, the ticker still paces the GETs at poll; after a held
// GET the tick has already fired and the next one goes out at once.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration, onProgress func(JobStatus)) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	path := "/v1/jobs/" + id + "?wait_ms=" + strconv.FormatInt(poll.Milliseconds(), 10)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	var st JobStatus
	for {
		var cur JobStatus
		if err := c.getJSON(ctx, path, &cur); err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			}
			return st, err
		}
		st = cur
		if onProgress != nil {
			onProgress(st)
		}
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Stats fetches the daemon's counters.
func (c *Client) Stats() (StatsBody, error) {
	var st StatsBody
	err := c.getJSON(context.Background(), "/stats", &st)
	return st, err
}

// Healthy reports whether the daemon answers /healthz with 200.
func (c *Client) Healthy() bool {
	resp, err := c.HTTP.Get(c.Base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
