// Package storefs abstracts the filesystem operations the stream store
// performs — open/create, rename, remove, directory listing and sync,
// and per-file write/sync/allocate — behind a small interface with
// three implementations:
//
//   - OS, the real thing, delegating straight to package os;
//   - Faulty, a deterministic fault injector that wraps another FS,
//     numbers every operation, and can fail the Nth sync, tear a write
//     after K bytes, or crash-stop the "process" at operation N; and
//   - Model, an in-memory disk that lies: nothing reaches it durably
//     before the matching Sync or SyncDir, and Crash keeps none, all or
//     a torn prefix of what was not synced.
//
// The point of the split is that crash-recovery contracts become
// enumerable: instead of reaching a torn write inside compaction or a
// failed fsync mid-batch by kill -9 timing, a test lists the store's
// operations once, then replays the workload crashing at each one and
// asserts recovery invariants. Faulty also keeps a structured op log,
// which doubles as the reproduction artifact when a crash point fails
// in CI.
//
// The store's advisory LOCK file stays outside this abstraction: flock
// is about real inter-process exclusion, which a simulated filesystem
// cannot meaningfully provide.
package storefs

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// File is the per-file surface the store needs: positioned reads for
// recovery, appends and syncs for the journal, truncation for torn-tail
// repair.
type File interface {
	io.ReaderAt
	io.Writer
	io.Closer
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
	Name() string
}

// Allocate reserves [off, off+n) of f ahead of the writes that will fill
// it: the file's size grows to cover the range, and bytes never written
// read back as zeros. It is optional. A File with an Allocate(off, n
// int64) error method provides it (Faulty's and Model's files do), an
// *os.File gets fallocate(2) on Linux, and anything else reports
// errors.ErrUnsupported. Callers must treat any error as "keep growing
// the file by plain writes".
func Allocate(f File, off, n int64) error {
	switch a := f.(type) {
	case interface{ Allocate(off, n int64) error }:
		return a.Allocate(off, n)
	case *os.File:
		return allocateOS(a, off, n)
	}
	return errors.ErrUnsupported
}

// FS is the filesystem surface the store needs. All paths are plain
// operating-system paths (the store always passes absolute paths inside
// its state directory).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory like os.ReadDir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// Stat stats a path like os.Stat.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory, making just-created or just-renamed
	// names durable.
	SyncDir(dir string) error
	// MkdirAll creates a directory path like os.MkdirAll.
	MkdirAll(dir string, perm fs.FileMode) error
	// ReadFile reads a whole file like os.ReadFile.
	ReadFile(name string) ([]byte, error)
}

// OS is the production FS: every method delegates to package os.
type OS struct{}

var _ FS = OS{}

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// Stat implements FS.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer func() { _ = d.Close() }()
	return d.Sync()
}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
