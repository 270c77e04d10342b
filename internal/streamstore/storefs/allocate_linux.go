//go:build linux

package storefs

import (
	"os"
	"syscall"
)

// allocateOS extends f over [off, off+n) with fallocate(2) mode 0: the
// blocks are reserved, the size grows to cover them, and the new range
// reads back as zeros.
func allocateOS(f *os.File, off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var aerr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if aerr = syscall.Fallocate(int(fd), 0, off, n); aerr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	if aerr != nil {
		return &os.PathError{Op: "fallocate", Path: f.Name(), Err: aerr}
	}
	return nil
}
