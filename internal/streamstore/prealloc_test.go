package streamstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// allocSupported reports whether the filesystem under dir preallocates.
func allocSupported(t *testing.T, dir string) bool {
	t.Helper()
	f, err := os.CreateTemp(dir, "probe")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Remove(f.Name()); _ = f.Close() }()
	return storefs.Allocate(f, 0, 4096) == nil
}

func chargeUser(t *testing.T, s *Store, user string) {
	t.Helper()
	if err := s.AppendCharge(stream.ChargeRecord{User: user, Window: 0, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
}

func usersOf(t *testing.T, s *Store) map[string]float64 {
	t.Helper()
	st, err := recoveredState(t, s, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	if st != nil {
		for _, u := range st.Users {
			out[u.ID] = u.CumulativeEpsilon
		}
	}
	return out
}

// TestPreallocatedTailRecovery: a store stopped with a preallocated tail
// — the records, then zeros to the end of the extent, exactly what a
// kill -9 after the last ack leaves — recovers exactly its acknowledged
// records; a record torn inside that tail (half a line, then zeros) is
// dropped; and Open truncates the tail, so the next append lands on the
// record boundary.
func TestPreallocatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const n = 20
	for i := 0; i < n; i++ {
		chargeUser(t, s, fmt.Sprintf("u%02d", i))
	}
	valid := s.JournalPos().Off
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentFileName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if allocSupported(t, dir) && fi.Size() != journalAllocChunk {
		t.Fatalf("segment is %d bytes for %d bytes of records, want one preallocated chunk of %d", fi.Size(), valid, journalAllocChunk)
	}

	line, err := appendChargeRecord(nil, stream.ChargeRecord{User: "torn", Window: 0, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(valid + journalAllocChunk/2); err != nil { // a zero tail even without fallocate
		t.Fatal(err)
	}
	if _, err := f.WriteAt(line[:len(line)/2], valid); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	users := usersOf(t, re)
	if len(users) != n || users["torn"] != 0 {
		t.Fatalf("recovered %d users (torn: %v), want exactly the %d acknowledged", len(users), users["torn"], n)
	}
	if pos := re.JournalPos(); pos.Off != valid {
		t.Fatalf("recovered journal end %d, want %d", pos.Off, valid)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != valid {
		t.Fatalf("repair left %d bytes (%v), want the tail truncated to %d", fi.Size(), err, valid)
	}
	chargeUser(t, re, "late")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	third := mustOpen(t, dir)
	defer func() { _ = third.Close() }()
	if users := usersOf(t, third); len(users) != n+1 || users["late"] != 1 {
		t.Fatalf("after the post-repair append: %d users, late = %v", len(users), users["late"])
	}
}

// countingFile counts the bytes read through it.
type countingFile struct {
	storefs.File
	read int64
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read += int64(n)
	return n, err
}

// TestZeroTailScanIsBounded: recovering a segment whose records are
// followed by a 1 MiB zero tail reads and allocates O(journalScanChunk),
// not O(tail) — the scan stops at the first NUL instead of carrying the
// zeros while it looks for a newline that never comes.
func TestZeroTailScanIsBounded(t *testing.T) {
	var recs []byte
	for i := 0; i < 10; i++ {
		line, err := appendChargeRecord(nil, stream.ChargeRecord{User: fmt.Sprintf("u%d", i), Window: i, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, line...)
	}
	const tail = 1 << 20
	path := filepath.Join(t.TempDir(), "seg.wal")
	if err := os.WriteFile(path, append(recs, make([]byte, tail)...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	cf := &countingFile{File: f}

	var emitted int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	valid, err := scanJournalFile(cf, int64(len(recs)+tail), 0, func(stream.ChargeRecord) { emitted++ })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(len(recs)) || emitted != 10 {
		t.Fatalf("scan = %d bytes, %d records; want %d, 10", valid, emitted, len(recs))
	}
	if max := int64(len(recs) + journalScanChunk); cf.read > max {
		t.Errorf("scan read %d bytes, want at most %d (records + one chunk)", cf.read, max)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*journalScanChunk {
		t.Errorf("scan allocated %d bytes over a %d-byte zero tail, want < %d", alloc, tail, 2*journalScanChunk)
	}
}

// noAllocFS refuses every preallocation, as a filesystem without
// fallocate does, and counts the attempts.
type noAllocFS struct {
	storefs.FS
	calls *atomic.Int64
}

func (fsys noAllocFS) OpenFile(name string, flag int, perm os.FileMode) (storefs.File, error) {
	f, err := fsys.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noAllocFile{File: f, calls: fsys.calls}, nil
}

type noAllocFile struct {
	storefs.File
	calls *atomic.Int64
}

func (f noAllocFile) Allocate(int64, int64) error {
	f.calls.Add(1)
	return syscall.EOPNOTSUPP
}

// TestAllocateFailureFallsBackToPlainAppends: where preallocation fails
// (EOPNOTSUPP here), every append still acks — through plain appends
// that grow the file — after one attempt, and recovery sees every
// record.
func TestAllocateFailureFallsBackToPlainAppends(t *testing.T) {
	dir := t.TempDir()
	calls := new(atomic.Int64)
	s, err := OpenWith(dir, Options{FS: noAllocFS{FS: storefs.OS{}, calls: calls}, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		chargeUser(t, s, fmt.Sprintf("u%02d", i))
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("Allocate attempted %d times, want once before falling back", got)
	}
	valid := s.JournalPos().Off
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, segmentFileName(1))); err != nil || fi.Size() != valid {
		t.Fatalf("segment is %d bytes (%v), want exactly its %d bytes of records", fi.Size(), err, valid)
	}
	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	if users := usersOf(t, re); len(users) != n {
		t.Fatalf("recovered %d users, want %d", len(users), n)
	}
}

// TestOpenAcceptsSealedSegmentWithZeroTail: a crash between a compaction
// roll and the removal of the rolled segment leaves a sealed segment
// that still carries its preallocated zeros. Open accepts it, replay
// stops at the NUL, and the next compaction deletes it.
func TestOpenAcceptsSealedSegmentWithZeroTail(t *testing.T) {
	dir := t.TempDir()
	var recs []byte
	for i := 0; i < 3; i++ {
		line, err := appendChargeRecord(nil, stream.ChargeRecord{User: fmt.Sprintf("u%d", i), Window: 0, Epsilon: 1})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, line...)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentFileName(1)), append(recs, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer func() { _ = s.Close() }()
	if pos := s.JournalPos(); pos.Seq != 2 {
		t.Fatalf("active segment %d, want 2", pos.Seq)
	}
	users := usersOf(t, s)
	if len(users) != 3 {
		t.Fatalf("recovered %d users, want 3", len(users))
	}
	st, err := recoveredState(t, s, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	chargeUser(t, s, "u3")
	if err := s.WriteSnapshot(st, JournalPos{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentFileName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("covered zero-tailed segment survived compaction: %v", err)
	}
	if users := usersOf(t, s); len(users) != 4 {
		t.Fatalf("after compaction: %d users, want 4", len(users))
	}
}

// The roll workload's segment cap, and the length of each of its charge
// records: the one the JSON-line journal gave them, reached by padding
// the user IDs (paddedUser), so the crash points keep their labels.
const (
	rollSegmentBytes = 160
	rollRecordLen    = 46
)

// journaledState is the state the roll cycle snapshots: one user per
// journaled charge (the cycle charges each user once). It reads what
// Store.Recover reads before the result history — the snapshot file
// (there is none yet), then the journal — so the cycle's crash points
// stay numbered over the same ops.
func journaledState(s *Store) (*stream.EngineState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, covered, err := s.loadSnapshotLocked()
	if err != nil {
		return nil, err
	}
	recs, err := s.readJournalLocked(covered)
	if err != nil {
		return nil, err
	}
	st := &stream.EngineState{}
	for _, rec := range recs {
		st.Users = append(st.Users, stream.UserSnapshot{
			ID: rec.User, Carry: 1, CumulativeEpsilon: rec.Epsilon, LastWindow: rec.Window, Windows: 1,
		})
	}
	return st, nil
}

// runRollCycle charges one user per append through a size-cap roll, a
// snapshot whose compaction rolls and deletes the whole journal, and
// appends into the fresh segment after it. It returns the users whose
// charge was acknowledged and the segments sealed before and after the
// snapshot.
func runRollCycle(fsys storefs.FS, dir string) (acked []string, sealed [2]int64, err error) {
	s, err := OpenWith(dir, Options{FS: fsys, MaxBatch: 1, SegmentBytes: rollSegmentBytes})
	if err != nil {
		return nil, sealed, err
	}
	defer func() { _ = s.Close() }()
	charge := func(user string) error {
		user = paddedUser(user, rollRecordLen, nil)
		if err := s.AppendCharge(stream.ChargeRecord{User: user, Window: 0, Epsilon: 1}); err != nil {
			return err
		}
		acked = append(acked, user)
		return nil
	}
	for i := 0; i < 5; i++ { // 46 B a record: the fourth crosses the cap
		if err := charge(fmt.Sprintf("a%d", i)); err != nil {
			return acked, sealed, err
		}
	}
	st, err := journaledState(s)
	if err != nil {
		return acked, sealed, err
	}
	sealed[0] = s.Stats(false).SegmentsSealed
	if err := s.WriteSnapshot(st, s.JournalPos()); err != nil {
		return acked, sealed, err
	}
	sealed[1] = s.Stats(false).SegmentsSealed
	for i := 0; i < 2; i++ {
		if err := charge(fmt.Sprintf("b%d", i)); err != nil {
			return acked, sealed, err
		}
	}
	return acked, sealed, nil
}

// TestRollCrashRecovers crashes at every op of a size-cap roll and of a
// compaction roll (and everything around them), on the real filesystem
// and on the lying disk in each crash mode. Each time the store must
// open, replay every acknowledged charge, compact the whole journal with
// a fresh snapshot, and still hold every charge after one more reopen.
func TestRollCrashRecovers(t *testing.T) {
	disks := map[string]sweepDisk{"os": osDisk}
	for _, mode := range storefs.CrashModes {
		disks["model-"+mode.String()] = modelDisk(mode)
	}
	for name, disk := range disks {
		t.Run(name, func(t *testing.T) {
			run, _ := disk()
			pilot := storefs.NewFaulty(run)
			_, sealed, err := runRollCycle(pilot, t.TempDir())
			if err != nil {
				t.Fatalf("pilot: %v", err)
			}
			if sealed[0] < 1 || sealed[1] <= sealed[0] {
				t.Fatalf("pilot sealed %d segments before the snapshot and %d after, want a size-cap and a compaction roll", sealed[0], sealed[1])
			}
			for _, tc := range storefs.CrashPoints(pilot.Ops()) {
				tc := tc
				t.Run(tc.Label, func(t *testing.T) {
					label := strings.ReplaceAll(t.Name(), "/", "-")
					dir := t.TempDir()
					run, afterCrash := disk()
					fy := storefs.NewFaulty(run)
					fy.CrashAt(tc.Op, tc.Tear)
					acked, _, _ := runRollCycle(fy, dir)
					fsys := afterCrash()
					check := func(s *Store, when string) {
						t.Helper()
						users := usersOf(t, s)
						for _, u := range acked {
							if users[u] < 1 {
								dumpOpLog(t, fy, label)
								t.Fatalf("%s: acknowledged charge of %s lost (have %v)", when, u, users)
							}
						}
					}
					s, err := OpenWith(dir, Options{FS: fsys, MaxBatch: 1, SegmentBytes: rollSegmentBytes})
					if err != nil {
						dumpOpLog(t, fy, label)
						t.Fatalf("open after crash: %v", err)
					}
					check(s, "recovery")
					st, err := recoveredState(t, s, bareCfg)
					if err != nil {
						t.Fatal(err)
					}
					if st == nil {
						st = &stream.EngineState{}
					}
					if err := s.WriteSnapshot(st, s.JournalPos()); err != nil {
						t.Fatalf("compaction after recovery: %v", err)
					}
					if got := s.Stats(false).Segments; got != 1 {
						t.Errorf("%d live segments after a full compaction, want 1", got)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					re, err := OpenWith(dir, Options{FS: fsys})
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = re.Close() }()
					check(re, "reopen after compaction")
				})
			}
		})
	}
}

// TestPreallocationAddsNoSyncs pins the I/O a ledger-on node pays, as
// counted in the Faulty op log: each serial append is one file fsync
// (the allocation rides it), and a window close is eight syncs — two
// each for the history result, the latest result and the snapshot
// (file + directory), one for the compaction roll's new segment name
// and one for the removals — the same as before preallocation. A store
// that never appends never allocates.
func TestPreallocationAddsNoSyncs(t *testing.T) {
	syncs := func(ops []storefs.Op) (n int) {
		for _, op := range ops {
			if op.Kind == storefs.OpSync || op.Kind == storefs.OpSyncDir {
				n++
			}
		}
		return n
	}
	kinds := func(ops []storefs.Op, kind storefs.OpKind) (n int) {
		for _, op := range ops {
			if op.Kind == kind {
				n++
			}
		}
		return n
	}

	dir := t.TempDir()
	allocates := allocSupported(t, dir)
	fy := storefs.NewFaulty(storefs.OS{})
	store, err := OpenWith(dir, Options{FS: fy, MaxBatch: 1, ResultHistory: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }()
	cfg := sweepConfig()
	cfg.Ledger = store
	cfg.ClaimWAL = true
	e := mustEngine(t, cfg)
	defer func() { _ = e.Close() }()

	for round := 0; round < 3; round++ {
		mark := fy.OpCount()
		const users = 8
		for u := 0; u < users; u++ {
			if _, _, err := e.Ingest(fmt.Sprintf("user-%d", u), []stream.Claim{{Object: u % 3, Value: float64(round)}}); err != nil {
				t.Fatal(err)
			}
		}
		ingest := fy.Ops()[mark:]
		if got := syncs(ingest); got != users {
			t.Errorf("round %d: %d appends cost %d syncs, want %d", round, users, got, users)
		}
		if got := kinds(ingest, storefs.OpAllocate); allocates && got != 1 {
			t.Errorf("round %d: %d allocations for the round's first flush into a fresh segment, want 1", round, got)
		}

		mark = fy.OpCount()
		res, err := e.CloseWindow()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.SaveResult(res); err != nil {
			t.Fatal(err)
		}
		if _, err := store.MaybeSnapshotEngine(e); err != nil {
			t.Fatal(err)
		}
		closeOps := fy.Ops()[mark:]
		if got := syncs(closeOps); got != 8 {
			t.Errorf("round %d: a ledger-on close cost %d syncs, want 8", round, got)
		}
		if got := kinds(closeOps, storefs.OpAllocate) + kinds(closeOps, storefs.OpTruncate); got != 0 {
			t.Errorf("round %d: the close allocated or truncated %d times, want 0", round, got)
		}
	}

	// Ledger off: the journal is opened and never flushed, so never
	// extended.
	idle := storefs.NewFaulty(storefs.OS{})
	s, err := OpenWith(t.TempDir(), Options{FS: idle})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(&stream.EngineState{Window: 1}, s.JournalPos()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := kinds(idle.Ops(), storefs.OpAllocate); got != 0 {
		t.Errorf("a store that never appends allocated %d times", got)
	}
}
