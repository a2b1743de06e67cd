package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mimicnet/internal/core"
	"mimicnet/internal/durable"
	"mimicnet/internal/obs"
)

// Registry is the content-addressed store of trained model artifacts.
// Keys are core.ModelKey digests — a canonical SHA-256 of the training-
// relevant configuration — so identical training work is provably
// identical and is performed at most once:
//
//   - an in-memory LRU holds the hottest decoded *core.MimicModels;
//   - an on-disk store (<dir>/<key>.json, atomic rename) survives
//     restarts and LRU eviction;
//   - singleflight deduplication coalesces concurrent identical requests
//     onto one trainer, with followers blocking until it finishes;
//   - a corrupt disk blob is counted, discarded, and falls back to
//     retraining — cache damage can slow a job down but never fail it.
type Registry struct {
	dir    string
	memCap int

	mu       sync.Mutex
	lru      *list.List // of *regEntry, front = most recent
	idx      map[string]*list.Element
	inflight map[string]*flight

	// Telemetry cells: one source of truth for Stats() and, once
	// ExposeTo binds them, GET /metrics.
	cMemHits     obs.Counter
	cDiskHits    obs.Counter
	cMisses      obs.Counter
	cCoalesced   obs.Counter
	cCorrupt     obs.Counter
	cEvictions   obs.Counter
	cStoreErrors obs.Counter
}

type regEntry struct {
	key    string
	models *core.MimicModels
}

// flight is one in-progress materialization; followers wait on done.
type flight struct {
	done   chan struct{}
	models *core.MimicModels
	err    error
}

// RegistryStats are the registry's cache counters. Hits() is the number
// the serve-smoke target asserts grows on resubmission.
type RegistryStats struct {
	MemHits     uint64 `json:"mem_hits"`
	DiskHits    uint64 `json:"disk_hits"`
	Misses      uint64 `json:"misses"` // materializations that had to train
	Coalesced   uint64 `json:"coalesced"`
	Corrupt     uint64 `json:"corrupt"`
	Evictions   uint64 `json:"evictions"`
	StoreErrors uint64 `json:"store_errors"`
	Entries     int    `json:"entries"` // current in-memory population
}

// Hits is the total of cache lookups that skipped training.
func (s RegistryStats) Hits() uint64 { return s.MemHits + s.DiskHits + s.Coalesced }

// NewRegistry creates a registry backed by dir (required; created if
// missing) holding at most memCap decoded artifacts in memory (<= 0
// selects a default of 8).
func NewRegistry(dir string, memCap int) (*Registry, error) {
	if memCap <= 0 {
		memCap = 8
	}
	if dir == "" {
		return nil, fmt.Errorf("serve: registry dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: registry dir: %w", err)
	}
	return &Registry{
		dir:      dir,
		memCap:   memCap,
		lru:      list.New(),
		idx:      make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}, nil
}

// Stats snapshots the counters.
func (r *Registry) Stats() RegistryStats {
	s := RegistryStats{
		MemHits:     r.cMemHits.Value(),
		DiskHits:    r.cDiskHits.Value(),
		Misses:      r.cMisses.Value(),
		Coalesced:   r.cCoalesced.Value(),
		Corrupt:     r.cCorrupt.Value(),
		Evictions:   r.cEvictions.Value(),
		StoreErrors: r.cStoreErrors.Value(),
	}
	r.mu.Lock()
	s.Entries = r.lru.Len()
	r.mu.Unlock()
	return s
}

// Get returns the models stored under key, materializing them with train
// exactly once across concurrent callers. hit reports whether training
// was skipped for this caller (memory, disk, or coalescing onto another
// caller's finished training run). ctx aborts a follower's wait; the
// leader's training itself is bounded by that leader's own ctx inside
// train. A leader stopped by its own cancellation or deadline does not
// fail its followers: one whose ctx is live takes over and trains.
func (r *Registry) Get(ctx context.Context, key string, train func() (*core.MimicModels, error)) (models *core.MimicModels, hit bool, err error) {
	r.mu.Lock()
	if el, ok := r.idx[key]; ok {
		r.lru.MoveToFront(el)
		r.cMemHits.Inc()
		m := el.Value.(*regEntry).models
		r.mu.Unlock()
		return m, true, nil
	}
	if f, ok := r.inflight[key]; ok {
		r.cCoalesced.Inc()
		r.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err == nil {
			return f.models, true, nil
		}
		if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
			return r.Get(ctx, key, train)
		}
		return nil, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[key] = f
	r.mu.Unlock()

	// Leader path: disk, then training.
	m, fromDisk := r.loadDisk(key)
	if m == nil {
		m, err = train()
		if err == nil {
			r.storeDisk(key, m)
		}
	}

	r.mu.Lock()
	if fromDisk {
		r.cDiskHits.Inc()
	} else if err == nil {
		r.cMisses.Inc()
	}
	if err == nil {
		r.insertLocked(key, m)
	}
	delete(r.inflight, key)
	r.mu.Unlock()

	f.models, f.err = m, err
	close(f.done)
	return m, fromDisk, err
}

// Contains reports whether key is resident in memory or on disk, without
// counting a hit or touching LRU order.
func (r *Registry) Contains(key string) bool {
	r.mu.Lock()
	_, ok := r.idx[key]
	r.mu.Unlock()
	if ok {
		return true
	}
	_, statErr := os.Stat(r.path(key))
	return statErr == nil
}

func (r *Registry) insertLocked(key string, m *core.MimicModels) {
	if el, ok := r.idx[key]; ok {
		r.lru.MoveToFront(el)
		el.Value.(*regEntry).models = m
		return
	}
	r.idx[key] = r.lru.PushFront(&regEntry{key: key, models: m})
	for r.lru.Len() > r.memCap {
		back := r.lru.Back()
		e := back.Value.(*regEntry)
		r.lru.Remove(back)
		delete(r.idx, e.key)
		r.cEvictions.Inc() // the disk copy, if any, remains
	}
}

func (r *Registry) path(key string) string {
	return filepath.Join(r.dir, key+".json")
}

// loadDisk attempts the on-disk copy. A missing file is a plain miss; an
// unreadable or undecodable blob counts as corrupt and falls back to
// retraining.
func (r *Registry) loadDisk(key string) (*core.MimicModels, bool) {
	blob, err := os.ReadFile(r.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			r.countCorrupt()
		}
		return nil, false
	}
	m, err := core.LoadModels(blob)
	if err != nil {
		r.countCorrupt()
		_ = os.Remove(r.path(key))
		return nil, false
	}
	return m, true
}

func (r *Registry) countCorrupt() { r.cCorrupt.Inc() }

// storeDisk persists through the shared durable helper (temp file +
// fsync + atomic rename + directory fsync), so readers never observe a
// torn write and a stored artifact survives power loss, not just process
// death. Store failures degrade to memory-only caching.
func (r *Registry) storeDisk(key string, m *core.MimicModels) {
	blob, err := m.Save()
	if err == nil {
		err = durable.WriteFileAtomic(r.path(key), blob, 0o644)
	}
	if err != nil {
		r.cStoreErrors.Inc()
	}
}
