package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mimicnet/internal/ml"
	"mimicnet/internal/obs"
)

// Server is the JSON-over-HTTP surface of the estimation service, built
// on the stdlib mux. Endpoints:
//
//	POST   /v1/jobs      submit a JobSpec → 202 JobStatus
//	                     (400 on a malformed or out-of-range spec,
//	                      413 on a body over 1 MiB,
//	                      429 + Retry-After on queue overflow,
//	                      503 while draining)
//	GET    /v1/jobs      list jobs
//	GET    /v1/jobs/{id}[?wait_ms=N]
//	                     one job (status, progress, result); with
//	                     wait_ms the request is held until the job ends
//	                     or N ms pass, capped at maxWait
//	                     (400 on a malformed wait_ms, 404 on an unknown id)
//	DELETE /v1/jobs/{id} cancel (queued or running)
//	GET    /healthz      liveness + drain state
//	GET    /stats        scheduler + registry counters
//	GET    /metrics      Prometheus text exposition of the obs registry
//	GET    /debug/pprof/ runtime profiling (CPU, heap, goroutines, trace)
type Server struct {
	sched *Scheduler
	reg   *Registry
	start time.Time
}

// NewServer wires the scheduler and registry into an HTTP API and binds
// their telemetry cells into the process-global obs registry, so the
// instance behind the HTTP surface is the one /metrics reports on.
func NewServer(sched *Scheduler, reg *Registry) *Server {
	s := &Server{sched: sched, reg: reg, start: time.Now()}
	sched.ExposeTo(obs.Default())
	reg.ExposeTo(obs.Default())
	obs.Default().GaugeFunc("mimicnet_serve_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	return s
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", obs.Default().Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	j, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.sched.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return nil, false
	}
	return j, true
}

// maxWait caps how long GET /v1/jobs/{id}?wait_ms=N holds a request. It
// stays well under the 30 s timeout of NewClient's HTTP client, so a held
// request is always answered before its client gives up on it, and under
// mimicnetd's 5 s shutdown grace, so http.Server.Shutdown never waits on
// a held request for a job still running past the drain for longer than
// it allows.
const maxWait = 2 * time.Second

// waitParam reads the wait_ms query parameter: absent is no wait, a
// value over maxWait is clamped, and anything but a non-negative integer
// is an error.
func waitParam(r *http.Request) (time.Duration, error) {
	q := r.URL.Query().Get("wait_ms")
	if q == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(q, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("serve: wait_ms %q is not a non-negative integer", q)
	}
	return time.Duration(min(ms, maxWait.Milliseconds())) * time.Millisecond, nil
}

// handleGet answers with the job's status. A wait_ms holds the answer
// until the job's Done closes, the wait runs out or the client goes
// away: Scheduler.complete closes Done only once the terminal record is
// journaled and counted, so a held request sees the final status as soon
// as the daemon has it.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	wait, err := waitParam(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-j.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		j.Cancel()
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

// healthBody is the /healthz payload.
type healthBody struct {
	Status string `json:"status"` // ok | draining
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.sched.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
}

// StatsBody is the /stats payload.
type StatsBody struct {
	UptimeSec float64 `json:"uptime_sec"`
	// GemmKernel is the GEMM kernel family the CPUID probe selected at
	// process start; all families are bitwise identical, so this
	// affects throughput only.
	GemmKernel string         `json:"gemm_kernel"`
	Scheduler  SchedulerStats `json:"scheduler"`
	Registry   RegistryStats  `json:"registry"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsBody{
		UptimeSec:  time.Since(s.start).Seconds(),
		GemmKernel: ml.GemmKernelName(),
		Scheduler:  s.sched.Stats(),
		Registry:   s.reg.Stats(),
	})
}
