package storefs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// CrashMode chooses what of the unsynced state a Model keeps when the
// simulated machine loses power.
type CrashMode int

// The crash modes, from the most forgetful disk to the most generous.
const (
	// KeepNone drops everything not yet synced: every file reverts to
	// its content at its last Sync, the namespace to its last SyncDir.
	KeepNone CrashMode = iota
	// KeepAll keeps everything, as if the disk had flushed its cache
	// just in time: the crash-stop disk Faulty over OS already models.
	KeepAll
	// KeepTorn keeps a torn prefix: the first half of each file's
	// unsynced changed range, and the first half (rounded up) of the
	// pending namespace changes, in the order they were made.
	KeepTorn
)

// CrashModes lists every mode, for sweeps that run once per mode.
var CrashModes = []CrashMode{KeepNone, KeepAll, KeepTorn}

func (m CrashMode) String() string {
	switch m {
	case KeepNone:
		return "none"
	case KeepAll:
		return "all"
	case KeepTorn:
		return "torn"
	}
	return "unknown"
}

// Model is an in-memory FS that lies the way a disk may: every operation
// succeeds at once and is visible to the process at once, but only the
// matching sync makes it durable. A file's data, size, truncation and
// Allocate stay volatile until that file's Sync; creates, renames and
// removes stay volatile until SyncDir of the directory they touch (a
// rename across directories becomes durable with either). Allocated,
// never-written bytes read as zeros. Directories themselves are durable
// as soon as MkdirAll returns.
//
// Crash(mode) is the power cut: the model keeps none, all or a torn
// prefix of what was not synced, and handles opened before it fail with
// os.ErrClosed. Wrap a Model in a Faulty to stop the "process" at op N,
// then Crash it and reopen the store on it: that reaches the states a
// crash-stop disk cannot — a missing fsync becomes a lost write. Safe
// for concurrent use.
type Model struct {
	mu      sync.Mutex
	dirs    map[string]bool
	names   map[string]*modelInode // the namespace the process sees
	durable map[string]*modelInode // the namespace that survives a crash
	pending []nsOp                 // namespace changes since their SyncDir, oldest first
	gen     int                    // bumped by Crash; older handles are dead
}

var _ FS = (*Model)(nil)

// modelInode is one file's content as the process sees it (data) and as
// it survives a crash (synced).
type modelInode struct {
	data   []byte
	synced []byte
}

// nsOp is one pending namespace change. to is "" for a remove; from is
// "" for a create.
type nsOp struct {
	from, to string
	ino      *modelInode
}

func (op nsOp) apply(names map[string]*modelInode) {
	if op.from != "" {
		delete(names, op.from)
	}
	if op.to != "" {
		names[op.to] = op.ino
	}
}

func (op nsOp) touches(dir string) bool {
	return (op.from != "" && filepath.Dir(op.from) == dir) || (op.to != "" && filepath.Dir(op.to) == dir)
}

// NewModel returns an empty Model.
func NewModel() *Model {
	return &Model{
		dirs:    make(map[string]bool),
		names:   make(map[string]*modelInode),
		durable: make(map[string]*modelInode),
	}
}

// Crash simulates a power cut: what was synced survives, and of the rest
// the mode decides. The model stays usable afterwards as the disk a
// restarted process finds.
func (m *Model) Crash(mode CrashMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keep := 0
	switch mode {
	case KeepAll:
		keep = len(m.pending)
	case KeepTorn:
		keep = (len(m.pending) + 1) / 2
	}
	for _, op := range m.pending[:keep] {
		op.apply(m.durable)
	}
	m.pending = nil
	m.names = make(map[string]*modelInode, len(m.durable))
	for name, ino := range m.durable {
		m.names[name] = ino
		switch mode {
		case KeepNone:
			ino.data = clone(ino.synced)
		case KeepAll:
			ino.synced = clone(ino.data)
		case KeepTorn:
			ino.data = tornPrefix(ino.synced, ino.data)
			ino.synced = clone(ino.data)
		}
	}
	m.gen++
}

// tornPrefix is what a crash leaves of a file whose last synced content
// was synced and whose volatile content is data. The changed range runs
// from the first byte that differs to the last (a missing byte reads as
// zero, as an allocated one does); its first half reached the disk, the
// rest of the file is as synced. A record written into a preallocated
// tail therefore tears into half a record followed by zeros.
func tornPrefix(synced, data []byte) []byte {
	at := func(b []byte, i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	first, last := 0, max(len(synced), len(data))
	for first < last && at(synced, first) == at(data, first) {
		first++
	}
	for last > first && at(synced, last-1) == at(data, last-1) {
		last--
	}
	out := clone(data[:min(first+(last-first)/2, len(data))])
	if len(synced) > len(out) {
		out = append(out, synced[len(out):]...)
	}
	return out
}

func clone(b []byte) []byte { return append([]byte{}, b...) }

func pathErr(op, name string, err error) error {
	return &fs.PathError{Op: op, Path: name, Err: err}
}

// OpenFile implements FS for the flags the store uses: O_RDONLY,
// O_WRONLY, O_RDWR, O_CREATE, O_EXCL, O_TRUNC and O_APPEND.
func (m *Model) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(name)] {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	if m.dirs[name] {
		return nil, pathErr("open", name, syscall.EISDIR)
	}
	ino, ok := m.names[name]
	switch {
	case ok && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, pathErr("open", name, fs.ErrExist)
	case !ok && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, fs.ErrNotExist)
	case !ok:
		ino = &modelInode{}
		m.names[name] = ino
		m.pending = append(m.pending, nsOp{to: name, ino: ino})
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	if writable && flag&os.O_TRUNC != 0 {
		ino.data = ino.data[:0]
	}
	return &modelFile{
		m: m, ino: ino, name: name, gen: m.gen,
		readable: flag&os.O_WRONLY == 0, writable: writable, appends: flag&os.O_APPEND != 0,
	}, nil
}

// Rename implements FS.
func (m *Model) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	if !m.dirs[filepath.Dir(newpath)] {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	op := nsOp{from: oldpath, to: newpath, ino: ino}
	op.apply(m.names)
	m.pending = append(m.pending, op)
	return nil
}

// Remove implements FS for files.
func (m *Model) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.names[name]; !ok {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	op := nsOp{from: name}
	op.apply(m.names)
	m.pending = append(m.pending, op)
	return nil
}

// ReadDir implements FS: files and subdirectories, sorted by name.
func (m *Model) ReadDir(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, pathErr("open", dir, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for name, ino := range m.names {
		if filepath.Dir(name) == dir {
			out = append(out, fs.FileInfoToDirEntry(modelInfo{name: filepath.Base(name), size: int64(len(ino.data))}))
		}
	}
	for d := range m.dirs {
		if d != dir && filepath.Dir(d) == dir {
			out = append(out, fs.FileInfoToDirEntry(modelInfo{name: filepath.Base(d), dir: true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat implements FS.
func (m *Model) Stat(name string) (fs.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if ino, ok := m.names[name]; ok {
		return modelInfo{name: filepath.Base(name), size: int64(len(ino.data))}, nil
	}
	if m.dirs[name] {
		return modelInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, pathErr("stat", name, fs.ErrNotExist)
}

// SyncDir implements FS: the namespace changes touching dir become
// durable, in the order they were made.
func (m *Model) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return pathErr("open", dir, fs.ErrNotExist)
	}
	kept := m.pending[:0]
	for _, op := range m.pending {
		if op.touches(dir) {
			op.apply(m.durable)
		} else {
			kept = append(kept, op)
		}
	}
	m.pending = kept
	return nil
}

// MkdirAll implements FS. Directories are durable at once.
func (m *Model) MkdirAll(dir string, _ fs.FileMode) error {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := dir; !m.dirs[d]; d = filepath.Dir(d) {
		if _, ok := m.names[d]; ok {
			return pathErr("mkdir", d, syscall.ENOTDIR)
		}
		m.dirs[d] = true
	}
	return nil
}

// ReadFile implements FS.
func (m *Model) ReadFile(name string) ([]byte, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[name]
	if !ok {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	return clone(ino.data), nil
}

// modelFile is one open handle. Its inode outlives renames and removes,
// as an open file descriptor does.
type modelFile struct {
	m                           *Model
	ino                         *modelInode
	name                        string
	gen                         int
	off                         int64
	readable, writable, appends bool
	closed                      bool
}

// lock takes the model's lock for op when the handle is open, current
// and permitted (allowed); callers unlock only on a nil error.
func (f *modelFile) lock(op string, allowed bool) error {
	f.m.mu.Lock()
	switch {
	case f.closed || f.gen != f.m.gen:
		f.m.mu.Unlock()
		return pathErr(op, f.name, os.ErrClosed)
	case !allowed:
		f.m.mu.Unlock()
		return pathErr(op, f.name, syscall.EBADF)
	}
	return nil
}

func (f *modelFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.lock("read", f.readable); err != nil {
		return 0, err
	}
	defer f.m.mu.Unlock()
	if off < 0 {
		return 0, pathErr("read", f.name, syscall.EINVAL)
	}
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *modelFile) Write(p []byte) (int, error) {
	if err := f.lock("write", f.writable); err != nil {
		return 0, err
	}
	defer f.m.mu.Unlock()
	if f.appends {
		f.off = int64(len(f.ino.data))
	}
	f.writeAt(p, f.off)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *modelFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.lock("write", f.writable); err != nil {
		return 0, err
	}
	defer f.m.mu.Unlock()
	if off < 0 || f.appends {
		return 0, pathErr("write", f.name, syscall.EINVAL)
	}
	f.writeAt(p, off)
	return len(p), nil
}

func (f *modelFile) writeAt(p []byte, off int64) {
	if len(p) == 0 {
		return // as os.File: no write, no growth
	}
	f.grow(off + int64(len(p)))
	copy(f.ino.data[off:], p)
}

// grow zero-extends the volatile content to size bytes.
func (f *modelFile) grow(size int64) {
	if n := size - int64(len(f.ino.data)); n > 0 {
		f.ino.data = append(f.ino.data, make([]byte, n)...)
	}
}

func (f *modelFile) Sync() error {
	if err := f.lock("sync", true); err != nil {
		return err
	}
	defer f.m.mu.Unlock()
	f.ino.synced = clone(f.ino.data)
	return nil
}

func (f *modelFile) Truncate(size int64) error {
	if err := f.lock("truncate", f.writable); err != nil {
		return err
	}
	defer f.m.mu.Unlock()
	if size < 0 {
		return pathErr("truncate", f.name, syscall.EINVAL)
	}
	if size < int64(len(f.ino.data)) {
		f.ino.data = f.ino.data[:size]
	}
	f.grow(size)
	return nil
}

// Allocate is fallocate(2) mode 0: the size grows to cover the range,
// existing bytes are untouched, new ones read as zeros.
func (f *modelFile) Allocate(off, n int64) error {
	if err := f.lock("fallocate", f.writable); err != nil {
		return err
	}
	defer f.m.mu.Unlock()
	if off < 0 || n <= 0 {
		return pathErr("fallocate", f.name, syscall.EINVAL)
	}
	f.grow(off + n)
	return nil
}

func (f *modelFile) Stat() (fs.FileInfo, error) {
	if err := f.lock("stat", true); err != nil {
		return nil, err
	}
	defer f.m.mu.Unlock()
	return modelInfo{name: filepath.Base(f.name), size: int64(len(f.ino.data))}, nil
}

func (f *modelFile) Name() string { return f.name }

func (f *modelFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return pathErr("close", f.name, os.ErrClosed)
	}
	f.closed = true
	return nil
}

// modelInfo is the fs.FileInfo of a Model file or directory.
type modelInfo struct {
	name string
	size int64
	dir  bool
}

func (i modelInfo) Name() string { return i.name }
func (i modelInfo) Size() int64  { return i.size }
func (i modelInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i modelInfo) ModTime() time.Time { return time.Time{} }
func (i modelInfo) IsDir() bool        { return i.dir }
func (i modelInfo) Sys() any           { return nil }
