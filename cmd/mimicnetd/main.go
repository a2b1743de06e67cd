// Command mimicnetd is the MimicNet estimation daemon: a long-running
// simulation-as-a-service process around internal/serve. It queues
// estimation jobs (train → tune → compose), caches trained Mimic models
// in a content-addressed registry so identical configurations train at
// most once, and exposes a small JSON API:
//
//	POST   /v1/jobs      submit a job        (429 + Retry-After when full)
//	GET    /v1/jobs/{id} status/progress/result; ?wait_ms=N holds the
//	                     answer until the job ends (capped)
//	DELETE /v1/jobs/{id} cancel
//	GET    /healthz      liveness (503 while draining)
//	GET    /stats        scheduler + registry counters
//	GET    /metrics      Prometheus text exposition (internal/obs)
//	GET    /debug/pprof/ Go runtime profiling
//
// SIGTERM/SIGINT drain gracefully: new submissions are rejected, queued
// and running jobs finish, then the process exits.
//
// The daemon is always durable. Under -data-dir (default
// <user cache dir>/mimicnet) accepted jobs are written to an append-only
// journal, training progress is checkpointed at epoch boundaries, and
// the model registry and dataset cache share the same root. After a
// crash or kill -9, the next boot replays the journal, re-enqueues
// unfinished jobs under their original IDs, and resumes their training
// from the last checkpoint — producing artifacts bitwise identical to
// an uninterrupted run. One daemon at a time may use a data dir: a
// second one on the same root refuses to start.
//
// Example:
//
//	mimicnetd -addr 127.0.0.1:9090 -data-dir /var/lib/mimicnet
//	curl -s -X POST localhost:9090/v1/jobs -d '{"clusters": 32}'
//	mimicnet -server http://127.0.0.1:9090 -clusters 32
//
// The -smoke flag runs the self-test used by `make serve-smoke`: boot on
// a random port, run a cold job, prove the identical warm job skips
// training via the registry, log cold/warm latency and warm throughput,
// kill a durable daemon mid-train and prove the rebuilt daemon resumes
// the job from its checkpoint, then SIGTERM itself mid-job to verify the
// drain contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mimicnet/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9090", "listen address")
		dataDir      = flag.String("data-dir", defaultDataDir(), "state root: job journal, training checkpoints, dataset cache and model registry live under it, so jobs and artifacts survive restarts")
		memCache     = flag.Int("mem-cache", 8, "decoded models held in the in-memory LRU")
		queueDepth   = flag.Int("queue", 64, "job queue capacity (admission control bound)")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "max wait for in-flight jobs on shutdown")
		smoke        = flag.Bool("smoke", false, "run the serve-smoke self-test and exit")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(*queueDepth, *workers, *drainTimeout); err != nil {
			log.Fatalf("smoke: FAIL: %v", err)
		}
		fmt.Println("smoke: PASS")
		return
	}

	d, err := newDaemon(*addr, *dataDir, *memCache, *queueDepth, *workers, *drainTimeout)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mimicnetd listening on %s (data-dir %s, queue %d, workers %d)",
		d.URL(), *dataDir, *queueDepth, d.sched.Workers())
	d.Serve()
	log.Printf("mimicnetd drained, exiting")
}

func defaultDataDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "mimicnet")
	}
	return filepath.Join(os.TempDir(), "mimicnet")
}

// daemon bundles the serve stack with its listener and shutdown path so
// the smoke self-test exercises the exact production signal handling.
type daemon struct {
	reg          *serve.Registry
	sched        *serve.Scheduler
	httpSrv      *http.Server
	ln           net.Listener
	drainTimeout time.Duration
	done         chan struct{} // closed once Serve has fully drained
	shutdownErr  error         // http.Server.Shutdown's result, set before done closes
}

// newDaemon assembles the serve stack under dataDir: the model registry
// in <dataDir>/registry, the job journal in <dataDir>/journal, training
// cursors in <dataDir>/ckpt and the dataset cache in <dataDir>/datasets.
// On boot, journaled unfinished jobs are re-enqueued and resume from
// their checkpoints. It fails while another daemon holds dataDir.
func newDaemon(addr, dataDir string, memCache, queueDepth, workers int, drainTimeout time.Duration) (*daemon, error) {
	reg, err := serve.NewRegistry(filepath.Join(dataDir, "registry"), memCache)
	if err != nil {
		return nil, err
	}
	sched, rep, err := serve.NewSchedulerWithOptions(reg, serve.SchedulerOptions{
		QueueDepth:    queueDepth,
		Workers:       workers,
		JournalDir:    filepath.Join(dataDir, "journal"),
		CheckpointDir: filepath.Join(dataDir, "ckpt"),
		DatasetDir:    filepath.Join(dataDir, "datasets"),
	})
	if err != nil {
		return nil, fmt.Errorf("mimicnetd: %w", err)
	}
	log.Printf("mimicnetd: recovery: %s", rep)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		sched.Kill()
		return nil, err
	}
	return &daemon{
		reg:          reg,
		sched:        sched,
		httpSrv:      &http.Server{Handler: serve.NewServer(sched, reg).Handler()},
		ln:           ln,
		drainTimeout: drainTimeout,
		done:         make(chan struct{}),
	}, nil
}

// URL returns the daemon's base URL (useful with ":0" listen addresses).
func (d *daemon) URL() string { return "http://" + d.ln.Addr().String() }

// Serve blocks until SIGTERM/SIGINT, then drains: admission closes
// first, in-flight and queued jobs run to completion (bounded by
// -drain-timeout), and only then does the HTTP listener shut down — so
// clients can keep polling their jobs to the end.
func (d *daemon) Serve() {
	defer close(d.done)
	go func() {
		if err := d.httpSrv.Serve(d.ln); err != nil && err != http.ErrServerClosed {
			log.Printf("mimicnetd: http: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	s := <-sig
	signal.Stop(sig)
	log.Printf("mimicnetd: %v: draining (running jobs finish, new submissions rejected)", s)

	drainCtx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	if err := d.sched.Drain(drainCtx); err != nil {
		log.Printf("mimicnetd: drain incomplete: %v", err)
	}
	// Compact and release the journal: the next boot replays a snapshot
	// of terminal states instead of the full record history.
	if err := d.sched.Close(); err != nil {
		log.Printf("mimicnetd: journal close: %v", err)
	}
	// A held GET /v1/jobs/{id}?wait_ms= answers once its job ends, and
	// every job has ended by now unless the drain timed out; even then
	// it answers within the server's cap, which is under this grace.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if d.shutdownErr = d.httpSrv.Shutdown(shutCtx); d.shutdownErr != nil {
		log.Printf("mimicnetd: http shutdown: %v", d.shutdownErr)
	}
}
