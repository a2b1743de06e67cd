//go:build !unix || aix || solaris

package durable

import "os"

// lockDir takes no lock where syscall has no flock: two openers of one
// journal directory are not detected there.
func lockDir(string) (*os.File, error) { return nil, nil }
