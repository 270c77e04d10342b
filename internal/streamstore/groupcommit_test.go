package streamstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// TestGroupCommitDurability hammers AppendCharge from many goroutines
// and verifies the core contract: every acknowledged append is durable,
// parseable, and replayed exactly once after reopen — batching changes
// how records reach the disk, never whether.
func TestGroupCommitDurability(t *testing.T) {
	const (
		writers = 16
		perW    = 25
	)
	t.Run("batch-0", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					rec := stream.ChargeRecord{
						User:    fmt.Sprintf("user-%02d", w),
						Window:  i,
						Epsilon: 0.25,
						Claims:  []stream.Claim{{Object: 0, Value: float64(i)}},
					}
					if err := s.AppendCharge(rec); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		re := mustOpen(t, dir)
		defer func() { _ = re.Close() }()
		st, err := recoveredState(t, re, bareCfg)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || len(st.Users) != writers {
			t.Fatalf("recovered %+v, want %d users", st, writers)
		}
		for _, u := range st.Users {
			if u.Windows != perW || u.LastWindow != perW-1 {
				t.Errorf("user %s = %+v, want %d windows", u.ID, u, perW)
			}
		}
	})
}

// TestGroupCommitSharesSyncs checks that concurrent appends actually
// coalesce: appends that arrive while the disk is busy (here, the test
// holds it) join the open batch and ride one fsync — and the journal
// still parses to every record with no torn lines, followed only by the
// zeros of its preallocated tail.
func TestGroupCommitSharesSyncs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const n = 64
	s.mu.Lock() // the disk is busy: every append queues behind it
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = s.AppendCharge(stream.ChargeRecord{User: fmt.Sprintf("u%d", i), Window: 0, Epsilon: 1})
		}(i)
	}
	for joined := 0; joined < n; {
		time.Sleep(time.Millisecond)
		s.commitMu.Lock()
		if s.pending != nil {
			joined = s.pending.n
		}
		s.commitMu.Unlock()
	}
	s.mu.Unlock()
	wg.Wait()
	if syncs := s.Stats(false).JournalSyncs; syncs != 1 {
		t.Errorf("%d appends queued behind one busy disk took %d syncs, want 1", n, syncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := parseJournal(data)
	if len(recs) != n {
		t.Fatalf("parsed %d records, want %d", len(recs), n)
	}
	tail := data[valid:]
	if len(tail) >= journalAllocChunk || bytes.Count(tail, []byte{0}) != len(tail) {
		t.Fatalf("journal has %d trailing bytes past its records, want fewer than %d, all zero", len(tail), journalAllocChunk)
	}
}

// TestGroupCommitSealsAtCap fills a batch to maxBatch: while a gated
// filesystem holds the first append's sync, maxBatch appenders fill one
// batch, which seals, and the rest open the next. Every record is
// durable and replayed once, and the queued appends took one flush per
// batch.
func TestGroupCommitSealsAtCap(t *testing.T) {
	const extra = 44 // appends past the cap: they open a second batch
	dir := t.TempDir()
	gate := &syncGate{entered: make(chan struct{}), release: make(chan struct{})}
	s, err := OpenWith(dir, Options{FS: gatedFS{FS: storefs.OS{}, gate: gate}})
	if err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	var wg sync.WaitGroup
	errs := make(chan error, 1+maxBatch+extra)
	appendAll := func(from, to int) {
		for i := from; i < to; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := s.AppendCharge(stream.ChargeRecord{User: fmt.Sprintf("u%03d", i), Window: 0, Epsilon: 1}); err != nil {
					errs <- err
				}
			}(i)
		}
	}
	// pendingIs polls until the open batch satisfies ok.
	pendingIs := func(what string, ok func(b *commitBatch) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			s.commitMu.Lock()
			done := ok(s.pending)
			s.commitMu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("open batch never became %s", what)
			}
		}
	}
	appendAll(0, 1)
	<-gate.entered // append 0's flush holds the disk
	pendingIs("sealed by its flush", func(b *commitBatch) bool { return b == nil })
	appendAll(1, maxBatch)
	pendingIs("one short of the cap", func(b *commitBatch) bool { return b != nil && b.n == maxBatch-1 })
	appendAll(maxBatch, maxBatch+1)
	pendingIs("sealed at the cap", func(b *commitBatch) bool { return b == nil })
	appendAll(maxBatch+1, 1+maxBatch+extra)
	pendingIs("the rest", func(b *commitBatch) bool { return b != nil && b.n == extra })
	close(gate.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats(false)
	if st.JournalSyncs != 3 || st.BatchSizes.Max != maxBatch || st.BatchSizes.Sum != 1+maxBatch+extra {
		t.Errorf("%d appends took %d syncs, largest batch %v, %v records; want 3 syncs carrying 1, %d and %d",
			1+maxBatch+extra, st.JournalSyncs, st.BatchSizes.Max, st.BatchSizes.Sum, maxBatch, extra)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	if users := usersOf(t, re); len(users) != 1+maxBatch+extra {
		t.Fatalf("recovered %d users, want %d", len(users), 1+maxBatch+extra)
	}
}

// syncGate blocks the first journal sync after armed is set until
// release is closed, signalling entered when it does.
type syncGate struct {
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

// gatedFS hands out files whose journal-segment syncs pass the gate.
type gatedFS struct {
	storefs.FS
	gate *syncGate
}

func (fsys gatedFS) OpenFile(name string, flag int, perm os.FileMode) (storefs.File, error) {
	f, err := fsys.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "journal-") {
		return f, err
	}
	return gatedFile{File: f, gate: fsys.gate}, nil
}

type gatedFile struct {
	storefs.File
	gate *syncGate
}

func (f gatedFile) Sync() error {
	if f.gate.armed.Load() {
		f.gate.once.Do(func() {
			close(f.gate.entered)
			<-f.gate.release
		})
	}
	return f.File.Sync()
}

// TestAppendAfterCloseFailsBatch: appends that reach the disk after
// Close must fail with ErrClosed, including followers of a batch whose
// leader lost the race with Close.
func TestAppendAfterCloseFailsBatch(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCharge(stream.ChargeRecord{User: "a", Window: 0, Epsilon: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestOpenWithRejectsBadOptions checks option validation.
func TestOpenWithRejectsBadOptions(t *testing.T) {
	for _, opts := range []Options{
		{SegmentBytes: -1},
		{SnapshotEvery: -2},
	} {
		if _, err := OpenWith(t.TempDir(), opts); err == nil {
			t.Errorf("OpenWith(%+v) succeeded", opts)
		}
	}
}
