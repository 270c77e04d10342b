package storefs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"
)

// ErrCrash is returned by every operation at and after a configured
// crash point: the simulated process is dead, and nothing it does past
// that instant reaches the disk.
var ErrCrash = errors.New("storefs: crash injected")

// ErrInjected is returned by a sync that FailSync targeted — a
// transient fsync failure (think one EIO) after which the filesystem
// keeps working.
var ErrInjected = errors.New("storefs: sync failure injected")

// OpKind names one class of filesystem operation in the op log.
type OpKind string

// The operation kinds a Faulty FS numbers and logs.
const (
	OpOpen     OpKind = "open"
	OpWrite    OpKind = "write"
	OpSync     OpKind = "sync"
	OpSyncDir  OpKind = "syncdir"
	OpRename   OpKind = "rename"
	OpRemove   OpKind = "remove"
	OpReadDir  OpKind = "readdir"
	OpStat     OpKind = "stat"
	OpTruncate OpKind = "truncate"
	OpAllocate OpKind = "allocate"
	OpRead     OpKind = "read"
	OpReadFile OpKind = "readfile"
	OpClose    OpKind = "close"
)

// Op is one logged filesystem operation. The sequence number N is what
// a crash-point sweep enumerates: "crash at op 17" is deterministic and
// reproducible from the log alone.
type Op struct {
	N    int
	Kind OpKind
	Path string
	// Off and Len describe writes and allocations (and truncates, Off =
	// size).
	Off int64
	Len int
	// Err is the outcome when the op failed ("" on success).
	Err string
}

func (o Op) String() string {
	s := fmt.Sprintf("#%03d %-8s %s", o.N, o.Kind, o.Path)
	if o.Kind == OpWrite || o.Kind == OpAllocate {
		s += fmt.Sprintf(" off=%d len=%d", o.Off, o.Len)
	}
	if o.Kind == OpTruncate {
		s += fmt.Sprintf(" size=%d", o.Off)
	}
	if o.Err != "" {
		s += " ! " + o.Err
	}
	return s
}

// Faulty wraps another FS, numbering every operation into an op log and
// injecting deterministic faults:
//
//   - CrashAt(n, tear): operation n and everything after it fail with
//     ErrCrash. If operation n is a write, its first tear bytes still
//     reach the inner FS — a torn write, the on-disk shape of a power
//     cut mid-append.
//   - FailSync(n): the nth sync (file or directory) fails once with
//     ErrInjected; the filesystem keeps working afterwards.
//
// A Faulty with no faults configured is a pure op logger, useful for
// enumerating a workload's crash points and for asserting I/O patterns
// (e.g. "compaction deleted segments without rewriting survivors").
// Safe for concurrent use.
type Faulty struct {
	inner FS

	mu      sync.Mutex
	log     []Op
	n       int
	syncN   int
	crashAt int
	tear    int
	failAt  int
	crashed bool
}

var _ FS = (*Faulty)(nil)

// NewFaulty wraps inner (storefs.OS{} in practice) with fault injection
// disabled; configure faults with CrashAt / FailSync before use.
func NewFaulty(inner FS) *Faulty {
	return &Faulty{inner: inner}
}

// CrashAt makes operation n (1-based, counted across the whole FS) and
// every later operation fail with ErrCrash. If operation n is a write,
// its first tear bytes (capped at the write's length) still land — the
// torn write a real crash leaves. n <= 0 disables the crash point.
func (fy *Faulty) CrashAt(n, tear int) {
	fy.mu.Lock()
	defer fy.mu.Unlock()
	fy.crashAt = n
	fy.tear = tear
}

// FailSync makes the nth sync operation (file Sync or SyncDir, counted
// together, 1-based) fail once with ErrInjected. The filesystem — unlike
// a crash — keeps working afterwards.
func (fy *Faulty) FailSync(n int) {
	fy.mu.Lock()
	defer fy.mu.Unlock()
	fy.failAt = n
}

// Crashed reports whether the crash point has been reached.
func (fy *Faulty) Crashed() bool {
	fy.mu.Lock()
	defer fy.mu.Unlock()
	return fy.crashed
}

// OpCount returns how many operations have been numbered so far.
func (fy *Faulty) OpCount() int {
	fy.mu.Lock()
	defer fy.mu.Unlock()
	return fy.n
}

// Ops returns a copy of the op log.
func (fy *Faulty) Ops() []Op {
	fy.mu.Lock()
	defer fy.mu.Unlock()
	return append([]Op(nil), fy.log...)
}

// WriteOpLog renders the op log one line per operation — the
// reproduction artifact a failing crash-point test uploads from CI.
func (fy *Faulty) WriteOpLog(w io.Writer) error {
	for _, op := range fy.Ops() {
		if _, err := fmt.Fprintln(w, op); err != nil {
			return err
		}
	}
	return nil
}

// OpLogString returns the rendered op log.
func (fy *Faulty) OpLogString() string {
	var b strings.Builder
	_ = fy.WriteOpLog(&b)
	return b.String()
}

// CrashPoint is one case of a crash-point sweep: crash at op Op, with a
// write torn after Tear bytes (0: not torn).
type CrashPoint struct {
	Op    int
	Tear  int
	Label string
}

// CrashPoints lists a sweep's cases from a pilot run's op log: a crash
// at every op, plus every multi-byte write torn in half. Labels number
// the ops other than allocations (opNNN, opNNN-tornLEN) and name a crash
// at an allocation after the write it extends (opNNN-alloc), so a change
// in where the store preallocates never renumbers the other crash points.
func CrashPoints(ops []Op) []CrashPoint {
	var out []CrashPoint
	n := 0
	for _, op := range ops {
		if op.Kind == OpAllocate {
			out = append(out, CrashPoint{Op: op.N, Label: fmt.Sprintf("op%03d-alloc", n+1)})
			continue
		}
		n++
		label := fmt.Sprintf("op%03d", n)
		out = append(out, CrashPoint{Op: op.N, Label: label})
		if op.Kind == OpWrite && op.Len > 1 {
			out = append(out, CrashPoint{Op: op.N, Tear: op.Len / 2, Label: fmt.Sprintf("%s-torn%d", label, op.Len/2)})
		}
	}
	return out
}

// begin numbers one operation and decides its fate: nil to proceed,
// ErrCrash at and after the crash point, ErrInjected for a targeted
// sync. For the crashing op itself, tear reports how many bytes of a
// write may still reach the inner FS.
func (fy *Faulty) begin(kind OpKind, path string, off int64, length int) (tear int, err error) {
	fy.mu.Lock()
	defer fy.mu.Unlock()
	fy.n++
	op := Op{N: fy.n, Kind: kind, Path: path, Off: off, Len: length}
	atCrash := fy.crashAt > 0 && fy.n == fy.crashAt
	if fy.crashed || atCrash || (fy.crashAt > 0 && fy.n > fy.crashAt) {
		fy.crashed = true
		op.Err = ErrCrash.Error()
		if atCrash && kind == OpWrite {
			tear = fy.tear
			if tear > length {
				tear = length
			}
			if tear > 0 {
				op.Err = fmt.Sprintf("%s (torn after %d/%d bytes)", ErrCrash, tear, length)
			}
		}
		fy.log = append(fy.log, op)
		return tear, ErrCrash
	}
	if kind == OpSync || kind == OpSyncDir {
		fy.syncN++
		if fy.failAt > 0 && fy.syncN == fy.failAt {
			op.Err = ErrInjected.Error()
			fy.log = append(fy.log, op)
			return 0, ErrInjected
		}
	}
	fy.log = append(fy.log, op)
	return 0, nil
}

// OpenFile implements FS.
func (fy *Faulty) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if _, err := fy.begin(OpOpen, name, 0, 0); err != nil {
		return nil, err
	}
	f, err := fy.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fy: fy, inner: f, path: name}, nil
}

// Rename implements FS.
func (fy *Faulty) Rename(oldpath, newpath string) error {
	if _, err := fy.begin(OpRename, oldpath+" -> "+newpath, 0, 0); err != nil {
		return err
	}
	return fy.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (fy *Faulty) Remove(name string) error {
	if _, err := fy.begin(OpRemove, name, 0, 0); err != nil {
		return err
	}
	return fy.inner.Remove(name)
}

// ReadDir implements FS.
func (fy *Faulty) ReadDir(dir string) ([]fs.DirEntry, error) {
	if _, err := fy.begin(OpReadDir, dir, 0, 0); err != nil {
		return nil, err
	}
	return fy.inner.ReadDir(dir)
}

// Stat implements FS.
func (fy *Faulty) Stat(name string) (fs.FileInfo, error) {
	if _, err := fy.begin(OpStat, name, 0, 0); err != nil {
		return nil, err
	}
	return fy.inner.Stat(name)
}

// SyncDir implements FS.
func (fy *Faulty) SyncDir(dir string) error {
	if _, err := fy.begin(OpSyncDir, dir, 0, 0); err != nil {
		return err
	}
	return fy.inner.SyncDir(dir)
}

// MkdirAll implements FS. Directory creation is not a numbered op: the
// store only does it once at Open, before any state exists.
func (fy *Faulty) MkdirAll(dir string, perm fs.FileMode) error {
	if fy.Crashed() {
		return ErrCrash
	}
	return fy.inner.MkdirAll(dir, perm)
}

// ReadFile implements FS.
func (fy *Faulty) ReadFile(name string) ([]byte, error) {
	if _, err := fy.begin(OpReadFile, name, 0, 0); err != nil {
		return nil, err
	}
	return fy.inner.ReadFile(name)
}

// faultyFile routes every file operation through the owning Faulty's
// numbering and fault gate.
type faultyFile struct {
	fy    *Faulty
	inner File
	path  string
}

func (f *faultyFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := f.fy.begin(OpRead, f.path, off, len(p)); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultyFile) Write(p []byte) (int, error) {
	tear, err := f.fy.begin(OpWrite, f.path, -1, len(p))
	if err != nil {
		if tear > 0 {
			_, _ = f.inner.Write(p[:tear]) // the torn fragment that made it out
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	tear, err := f.fy.begin(OpWrite, f.path, off, len(p))
	if err != nil {
		if tear > 0 {
			_, _ = f.inner.WriteAt(p[:tear], off)
		}
		return 0, err
	}
	return f.inner.WriteAt(p, off)
}

func (f *faultyFile) Sync() error {
	if _, err := f.fy.begin(OpSync, f.path, 0, 0); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if _, err := f.fy.begin(OpTruncate, f.path, size, 0); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

// Allocate is a numbered op of its own, forwarded through the optional
// Allocate of the inner file.
func (f *faultyFile) Allocate(off, n int64) error {
	if _, err := f.fy.begin(OpAllocate, f.path, off, int(n)); err != nil {
		return err
	}
	return Allocate(f.inner, off, n)
}

func (f *faultyFile) Stat() (fs.FileInfo, error) {
	if _, err := f.fy.begin(OpStat, f.path, 0, 0); err != nil {
		return nil, err
	}
	return f.inner.Stat()
}

func (f *faultyFile) Name() string { return f.path }

// Close always releases the inner handle — a crashed simulation must
// not leak file descriptors — but still reports ErrCrash past the
// crash point.
func (f *faultyFile) Close() error {
	_, gateErr := f.fy.begin(OpClose, f.path, 0, 0)
	if err := f.inner.Close(); err != nil && gateErr == nil {
		return err
	}
	return gateErr
}
