//go:build unix && !aix && !solaris

package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive flock on dir's lock file without blocking:
// a second open of a live journal fails at once. Closing the returned
// file, or the death of the process holding it, releases the lock.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: journal lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: journal %s is in use by another process or scheduler: %w", dir, err)
	}
	return f, nil
}
