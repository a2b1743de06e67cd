// Package durable is the dependency-free persistence layer under the
// estimation service: a write-ahead job journal, a checkpoint file
// format, and the atomic-write primitive both share.
//
// The point (DESIGN.md decision 12) is that MimicNet's expensive
// artifact — hours of simulation plus model training — must survive
// infrastructure churn. The journal makes the serve Scheduler's job
// state replayable across process restarts; the checkpoint format makes
// an interrupted training run resumable to a bitwise-identical final
// artifact; WriteFileAtomic makes "committed" mean committed (rename
// alone does not survive a power cut — the directory entry needs an
// fsync too).
//
// Everything here is plain files under one data directory, framed with
// lengths and CRC32s so torn tails are detected and clipped rather than
// propagated. No SQLite, no external deps: the write path must stay
// allocation-light and auditable, and the only queries ever needed are
// "replay everything" and "load the newest snapshot".
package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path with full crash consistency: the
// bytes land in a temp file in the same directory, are fsynced, renamed
// over path, and the directory entry itself is fsynced. After it
// returns nil, the file survives power loss with either the old or the
// new complete contents — never a torn mix, and never a rename that a
// crash can un-happen.
func WriteFileAtomic(path string, data []byte, mode os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: atomic write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: atomic write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: atomic write: %w", err)
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: atomic write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: atomic write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: atomic write: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and removals within it are on
// stable storage. Filesystems that reject directory fsync (some network
// mounts) degrade gracefully: the error is swallowed, matching what the
// stdlib and most databases do there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	defer d.Close()
	// EINVAL/ENOTSUP from exotic filesystems is not a caller bug.
	_ = d.Sync()
	return nil
}
