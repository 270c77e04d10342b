package streamstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pptd/internal/stream"
)

// TestGroupCommitDurability hammers AppendCharge from many goroutines
// under several batching configurations and verifies the core contract:
// every acknowledged append is durable, parseable, and replayed exactly
// once after reopen — batching changes how records reach the disk,
// never whether.
func TestGroupCommitDurability(t *testing.T) {
	const (
		writers = 16
		perW    = 25
	)
	for _, opts := range []Options{
		{},            // default group commit
		{MaxBatch: 1}, // per-append fsync (batching off)
		{MaxBatch: 4}, // tiny batches, frequent seals
	} {
		opts := opts
		t.Run(fmt.Sprintf("batch-%d", opts.MaxBatch), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenWith(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
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
		{MaxBatch: -1},
		{SegmentBytes: -1},
		{SnapshotEvery: -2},
		{SnapshotBytes: -1},
	} {
		if _, err := OpenWith(t.TempDir(), opts); err == nil {
			t.Errorf("OpenWith(%+v) succeeded", opts)
		}
	}
}
