package storefs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// handlePair is one file opened the same way on both filesystems.
type handlePair struct{ os, model File }

// TestModelMatchesOS drives the same seeded random sequence of file and
// namespace operations through OS (in a temp directory) and Model, with
// no crash, and requires identical outcomes: the same success or failure
// per operation, the same bytes read, and after every step the same
// directory listing, sizes and contents.
func TestModelMatchesOS(t *testing.T) {
	seeds, steps := 24, 400
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			dir := t.TempDir()
			m := NewModel()
			if err := m.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var handles []handlePair
			defer func() {
				for _, h := range handles {
					_ = h.os.Close()
				}
			}()
			names := []string{"a", "b", "c", "journal-000000001.wal"}
			name := func() string { return filepath.Join(dir, names[rng.Intn(len(names))]) }
			flags := []int{
				os.O_CREATE | os.O_RDWR,
				os.O_RDWR,
				os.O_RDONLY,
				os.O_CREATE | os.O_WRONLY | os.O_TRUNC,
				os.O_CREATE | os.O_WRONLY | os.O_APPEND,
			}
			payload := func() []byte {
				p := make([]byte, 1+rng.Intn(300))
				rng.Read(p)
				return p
			}
			var trace []string // the ops so far, for the failure message
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s\nops:\n%s", fmt.Sprintf(format, args...), strings.Join(trace, "\n"))
			}
			same := func(step int, what string, osErr, modelErr error) {
				t.Helper()
				if (osErr == nil) != (modelErr == nil) {
					fail("step %d %s: os err %v, model err %v", step, what, osErr, modelErr)
				}
			}

			for step := 0; step < steps; step++ {
				var h handlePair
				hi := -1
				if len(handles) > 0 {
					hi = rng.Intn(len(handles))
					h = handles[hi]
				}
				op := rng.Intn(14)
				trace = append(trace, fmt.Sprintf("%d: op %d on handle %d", step, op, hi))
				switch {
				case op == 0 || hi < 0:
					n, flag := name(), flags[rng.Intn(len(flags))]
					trace[len(trace)-1] += fmt.Sprintf(" open %s flag %#x -> handle %d", filepath.Base(n), flag, len(handles))
					of, oerr := OS{}.OpenFile(n, flag, 0o644)
					mf, merr := m.OpenFile(n, flag, 0o644)
					same(step, "open "+n, oerr, merr)
					if oerr == nil {
						handles = append(handles, handlePair{of, mf})
					}
				case op == 1:
					p := payload()
					on, oerr := h.os.Write(p)
					mn, merr := h.model.Write(p)
					same(step, "write", oerr, merr)
					if on != mn {
						fail("step %d write: os %d bytes, model %d", step, on, mn)
					}
				case op == 2:
					p, off := payload(), rng.Int63n(600)
					_, oerr := h.os.WriteAt(p, off)
					_, merr := h.model.WriteAt(p, off)
					same(step, "writeat", oerr, merr)
				case op == 3:
					n, off := 1+rng.Intn(400), rng.Int63n(800)
					op, mp := make([]byte, n), make([]byte, n)
					on, oerr := h.os.ReadAt(op, off)
					mn, merr := h.model.ReadAt(mp, off)
					if on != mn || !bytes.Equal(op[:on], mp[:mn]) || (oerr == io.EOF) != (merr == io.EOF) {
						fail("step %d readat off %d: os %d %v, model %d %v", step, off, on, oerr, mn, merr)
					}
					same(step, "readat", oerr, merr)
				case op == 4:
					size := rng.Int63n(700)
					same(step, "truncate", h.os.Truncate(size), h.model.Truncate(size))
				case op == 5:
					off, n := rng.Int63n(600), 1+rng.Int63n(900)
					oerr := Allocate(h.os, off, n)
					if errors.Is(oerr, errors.ErrUnsupported) || errors.Is(oerr, syscall.EOPNOTSUPP) {
						break // this filesystem cannot preallocate: skip the op on both sides
					}
					same(step, "allocate", oerr, h.model.(*modelFile).Allocate(off, n))
				case op == 6:
					same(step, "sync", h.os.Sync(), h.model.Sync())
				case op == 7:
					ofi, oerr := h.os.Stat()
					mfi, merr := h.model.Stat()
					same(step, "fstat", oerr, merr)
					if oerr == nil && ofi.Size() != mfi.Size() {
						fail("step %d fstat: os size %d, model %d", step, ofi.Size(), mfi.Size())
					}
				case op == 8:
					same(step, "close", h.os.Close(), h.model.Close())
					handles = append(handles[:hi], handles[hi+1:]...)
				case op == 9:
					from, to := name(), name()
					trace[len(trace)-1] += fmt.Sprintf(" rename %s %s", filepath.Base(from), filepath.Base(to))
					same(step, "rename", OS{}.Rename(from, to), m.Rename(from, to))
				case op == 10:
					n := name()
					same(step, "remove", OS{}.Remove(n), m.Remove(n))
				case op == 11:
					same(step, "syncdir", OS{}.SyncDir(dir), m.SyncDir(dir))
				case op == 12:
					n := name()
					od, oerr := OS{}.ReadFile(n)
					md, merr := m.ReadFile(n)
					same(step, "readfile", oerr, merr)
					if !bytes.Equal(od, md) {
						fail("step %d readfile %s: os %d bytes, model %d", step, n, len(od), len(md))
					}
				default:
					n := name()
					ofi, oerr := OS{}.Stat(n)
					mfi, merr := m.Stat(n)
					same(step, "stat", oerr, merr)
					if oerr == nil && (ofi.Size() != mfi.Size() || ofi.Name() != mfi.Name()) {
						fail("step %d stat %s: os %s/%d, model %s/%d", step, n, ofi.Name(), ofi.Size(), mfi.Name(), mfi.Size())
					}
				}
				if got, want := snapshotFS(t, m, dir), snapshotFS(t, OS{}, dir); got != want {
					fail("step %d: model and OS diverged\nos:    %s\nmodel: %s", step, want, got)
				}
			}
		})
	}
}

// snapshotFS renders a directory's listing with each file's size and a
// checksum of its content.
func snapshotFS(t *testing.T, fsys FS, dir string) string {
	t.Helper()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		data, err := fsys.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var sum uint32
		for _, c := range data {
			sum = sum*31 + uint32(c)
		}
		fmt.Fprintf(&b, "%s:%d:%d:%08x ", e.Name(), info.Size(), len(data), sum)
	}
	return b.String()
}

func mustWrite(t *testing.T, f File, p string) {
	t.Helper()
	if _, err := f.Write([]byte(p)); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, m *Model, name string) (string, bool) {
	t.Helper()
	data, err := m.ReadFile(name)
	if errors.Is(err, os.ErrNotExist) {
		return "", false
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(data), true
}

// TestModelCrashModes pins what each crash mode keeps: synced data and
// namespace changes always; of the rest, nothing, everything, or a torn
// prefix (half the changed bytes, half the pending namespace changes,
// rounded up).
func TestModelCrashModes(t *testing.T) {
	for _, tc := range []struct {
		mode     CrashMode
		f, g     string
		gExists  bool
		tmpGone  bool
		oldStays bool
	}{
		{KeepNone, "abc", "", false, true, true},
		{KeepAll, "abcdefgh", "xyzw", true, true, false},
		{KeepTorn, "abcde", "xy", true, false, false},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			m := NewModel()
			if err := m.MkdirAll("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			f, err := m.OpenFile("/d/f", os.O_CREATE|os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			old, err := m.OpenFile("/d/old", os.O_CREATE|os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SyncDir("/d"); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, f, "abc")
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, f, "defgh") // never synced
			g, err := m.OpenFile("/d/g", os.O_CREATE|os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			mustWrite(t, g, "xyzw") // neither data nor name synced
			if err := m.Rename("/d/old", "/d/tmp"); err != nil {
				t.Fatal(err)
			}
			if err := m.Remove("/d/tmp"); err != nil {
				t.Fatal(err)
			}
			_ = old

			m.Crash(tc.mode)
			if got, _ := readAll(t, m, "/d/f"); got != tc.f {
				t.Errorf("f = %q, want %q", got, tc.f)
			}
			got, ok := readAll(t, m, "/d/g")
			if ok != tc.gExists || got != tc.g {
				t.Errorf("g = %q (exists %v), want %q (exists %v)", got, ok, tc.g, tc.gExists)
			}
			if _, ok := readAll(t, m, "/d/tmp"); ok == tc.tmpGone {
				t.Errorf("tmp exists = %v, want %v", ok, !tc.tmpGone)
			}
			if _, ok := readAll(t, m, "/d/old"); ok != tc.oldStays {
				t.Errorf("old exists = %v, want %v", ok, tc.oldStays)
			}
			if _, err := f.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
				t.Errorf("write through a handle from before the crash = %v, want os.ErrClosed", err)
			}
		})
	}
}

// TestModelAllocateIsVolatileUntilSync: an allocation grows the file
// with zeros, stays volatile until the file's Sync, and a record torn
// inside a synced allocation leaves half the record followed by zeros.
func TestModelAllocateIsVolatileUntilSync(t *testing.T) {
	m := NewModel()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenFile("/d/seg", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := Allocate(f, 0, 16); err != nil {
		t.Fatal(err)
	}
	if fi, _ := f.Stat(); fi.Size() != 16 {
		t.Fatalf("size after allocate = %d, want 16", fi.Size())
	}
	m.Crash(KeepNone)
	if got, _ := readAll(t, m, "/d/seg"); got != "" {
		t.Fatalf("unsynced allocation survived KeepNone: %q", got)
	}

	f, err = m.OpenFile("/d/seg", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Allocate(f, 0, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("r1\n"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("rec2\n"), 3); err != nil {
		t.Fatal(err)
	}
	m.Crash(KeepTorn)
	if got, _ := readAll(t, m, "/d/seg"); got != "r1\nre"+string(make([]byte, 11)) {
		t.Fatalf("torn write into the allocation = %q, want half the record then zeros", got)
	}
}

// TestCrashPointsLabels: allocations get labels of their own, named after
// the write they extend, and never shift the numbering of other ops.
func TestCrashPointsLabels(t *testing.T) {
	ops := []Op{
		{N: 1, Kind: OpOpen},
		{N: 2, Kind: OpAllocate, Len: 1 << 20},
		{N: 3, Kind: OpWrite, Len: 10},
		{N: 4, Kind: OpSync},
		{N: 5, Kind: OpWrite, Len: 1},
	}
	var got []string
	for _, cp := range CrashPoints(ops) {
		got = append(got, fmt.Sprintf("%s@%d/%d", cp.Label, cp.Op, cp.Tear))
	}
	want := []string{"op001@1/0", "op002-alloc@2/0", "op002@3/0", "op002-torn5@3/5", "op003@4/0", "op004@5/0"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("CrashPoints = %v, want %v", got, want)
	}
}
