package streamstore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pptd/internal/stream"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bareCfg is the engine the budget tests recover into: no accounting of
// its own, so the journaled charges alone set every user's budget.
var bareCfg = stream.Config{NumObjects: 8, NumShards: 1}

// recoveredState recovers everything s persists into a fresh engine built
// from cfg, the way a restarting node does (Store.Recover), and exports
// it. It returns nil when the directory holds no state.
func recoveredState(t *testing.T, s *Store, cfg stream.Config) (*stream.EngineState, error) {
	t.Helper()
	e, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if found, err := s.Recover(e); err != nil || !found {
		return nil, err
	}
	return e.ExportState()
}

func TestOpenEmptyDirHasNoState(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer func() { _ = s.Close() }()
	st, err := recoveredState(t, s, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("fresh directory returned state %+v", st)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestJournalReplayWithoutSnapshot is budget recovery in its purest
// form: no snapshot was ever written, yet journaled charges alone must
// reconstruct every user's cumulative spending.
func TestJournalReplayWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, rec := range []stream.ChargeRecord{
		{User: "alice", Window: 0, Epsilon: 0.5},
		{User: "bob", Window: 0, Epsilon: 0.5},
		{User: "alice", Window: 1, Epsilon: 0.5},
	} {
		if err := s.AppendCharge(rec); err != nil {
			t.Fatal(err)
		}
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
	if st == nil || len(st.Users) != 2 {
		t.Fatalf("recovered state = %+v, want 2 users", st)
	}
	if a := st.Users[0]; a.ID != "alice" || math.Abs(a.CumulativeEpsilon-1) > 1e-12 || a.LastWindow != 1 || a.Windows != 2 {
		t.Errorf("alice = %+v", a)
	}
	if b := st.Users[1]; b.ID != "bob" || math.Abs(b.CumulativeEpsilon-0.5) > 1e-12 || b.LastWindow != 0 {
		t.Errorf("bob = %+v", b)
	}
}

// TestTornJournalTail simulates a crash mid-append: garbage and a
// partial record after the last complete one must be truncated away on
// reopen, the valid prefix replayed, and later appends must land cleanly.
func TestTornJournalTail(t *testing.T) {
	mallory, err := appendChargeRecord(nil, stream.ChargeRecord{User: "mallory", Window: 0, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	badCRC := append([]byte{}, mallory...)
	badCRC[len(badCRC)-1] ^= 0x40
	badPayload, err := appendRecord(nil, []byte("not-a-charge-record"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{
		mallory[:len(mallory)-4], // torn mid-payload
		mallory[:5],              // torn mid-header
		[]byte("xxxx"),           // short garbage
		badCRC,                   // bad checksum, complete record
		badPayload,               // intact frame, undecodable payload
	} {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		if err := s.AppendCharge(stream.ChargeRecord{User: "alice", Window: 0, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendCharge(stream.ChargeRecord{User: "bob", Window: 0, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// The crash: raw bytes land after the last durable record.
		f, err := os.OpenFile(filepath.Join(dir, segmentFileName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		re := mustOpen(t, dir)
		st, err := recoveredState(t, re, bareCfg)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if st == nil || len(st.Users) != 2 {
			t.Fatalf("tail %q: recovered %+v, want alice+bob", tail, st)
		}
		for _, u := range st.Users {
			if u.ID == "mallory" {
				t.Fatalf("tail %q: corrupt record replayed", tail)
			}
		}
		// The tail was repaired: appending and replaying again stays clean.
		if err := re.AppendCharge(stream.ChargeRecord{User: "carol", Window: 1, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		again := mustOpen(t, dir)
		st, err = recoveredState(t, again, bareCfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Users) != 3 {
			t.Fatalf("tail %q: after repair+append got %d users, want 3", tail, len(st.Users))
		}
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotRoundTripResetsJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer func() { _ = s.Close() }()
	if err := s.AppendCharge(stream.ChargeRecord{User: "alice", Window: 0, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	state := &stream.EngineState{
		NumObjects:   3,
		Window:       1,
		WindowClaims: 2,
		TotalClaims:  7,
		Users: []stream.UserSnapshot{
			{ID: "alice", Carry: 1.25, CumulativeEpsilon: 1, LastWindow: 0, Windows: 1},
		},
		Stats: []stream.StatSnapshot{
			{Object: 0, User: "alice", Sum: 3.5, Mass: 1},
			{Object: 2, User: "alice", Sum: -1, Mass: 0.5},
		},
	}
	if err := s.WriteSnapshot(state, s.JournalPos()); err != nil {
		t.Fatal(err)
	}
	// Full coverage rolls the active segment and deletes the covered one:
	// the journal is back to a single empty segment.
	if st := s.Stats(false); st.JournalBytes != 0 || st.Segments != 1 {
		t.Errorf("journal not reset after snapshot: %d bytes in %d segments", st.JournalBytes, st.Segments)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentFileName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("covered segment 1 not deleted: %v", err)
	}

	got, err := recoveredState(t, s, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != 1 || got.WindowClaims != 2 || got.TotalClaims != 7 {
		t.Errorf("counters = %+v", got)
	}
	if len(got.Users) != 1 || got.Users[0] != state.Users[0] {
		t.Errorf("users = %+v", got.Users)
	}
	if len(got.Stats) != 2 || got.Stats[0] != state.Stats[0] || got.Stats[1] != state.Stats[1] {
		t.Errorf("stats = %+v", got.Stats)
	}
}

// TestJournalNewerThanSnapshot is the crash window the issue calls out:
// charges accepted after the last snapshot exist only in the journal,
// and recovery must fold them on top of the snapshot.
func TestJournalNewerThanSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer func() { _ = s.Close() }()
	state := &stream.EngineState{
		Window: 1,
		Users: []stream.UserSnapshot{
			{ID: "alice", Carry: 1, CumulativeEpsilon: 1, LastWindow: 0, Windows: 1},
		},
	}
	if err := s.WriteSnapshot(state, s.JournalPos()); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot traffic: alice joins the open window 1, bob appears
	// for the first time. Then the process dies with no further snapshot.
	if err := s.AppendCharge(stream.ChargeRecord{User: "alice", Window: 1, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCharge(stream.ChargeRecord{User: "bob", Window: 1, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}

	got, err := recoveredState(t, s, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Users) != 2 {
		t.Fatalf("users = %+v", got.Users)
	}
	if a := got.Users[0]; math.Abs(a.CumulativeEpsilon-2) > 1e-12 || a.LastWindow != 1 || a.Windows != 2 {
		t.Errorf("alice = %+v, want cum 2 over windows {0,1}", a)
	}
	if b := got.Users[1]; b.ID != "bob" || math.Abs(b.CumulativeEpsilon-1) > 1e-12 || b.LastWindow != 1 {
		t.Errorf("bob = %+v", b)
	}
}

func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.WriteSnapshot(&stream.EngineState{Window: 3}, JournalPos{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the state payload (the header is the byte-flip
	// sweep's business, TestStateFilesRejectEveryBitFlip).
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	if _, err := recoveredState(t, re, bareCfg); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Recover on corrupt snapshot = %v, want ErrCorruptSnapshot", err)
	}
}

func TestClosedStoreRefusesEverything(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCharge(stream.ChargeRecord{User: "a", Window: 0, Epsilon: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendCharge after Close = %v", err)
	}
	if err := s.WriteSnapshot(&stream.EngineState{}, JournalPos{}); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteSnapshot after Close = %v", err)
	}
	if _, err := recoveredState(t, s, bareCfg); !errors.Is(err, ErrClosed) {
		t.Errorf("Recover after Close = %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v", err)
	}
}

// TestSnapshotPreservesConcurrentTail is the regression test for the
// snapshot/ingest race: a charge journaled after the snapshot's state
// was exported (but before WriteSnapshot ran) must survive the journal
// compaction — erasing it would lose an acknowledged submission's only
// durable trace.
func TestSnapshotPreservesConcurrentTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.AppendCharge(stream.ChargeRecord{User: "alice", Window: 0, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	// The snapshot's export happens "now": it covers alice only.
	coveredUpTo := s.JournalPos()
	state := &stream.EngineState{
		Window: 1,
		Users: []stream.UserSnapshot{
			{ID: "alice", Carry: 1, CumulativeEpsilon: 1, LastWindow: 0, Windows: 1},
		},
	}
	// Bob's submission is charged, journaled, and acknowledged while the
	// snapshot file is still being written.
	if err := s.AppendCharge(stream.ChargeRecord{User: "bob", Window: 1, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(state, coveredUpTo); err != nil {
		t.Fatal(err)
	}

	// Crash + recover: bob's charge must still be there.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	got, err := recoveredState(t, re, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Users) != 2 {
		t.Fatalf("recovered users = %+v, want alice+bob", got.Users)
	}
	if b := got.Users[1]; b.ID != "bob" || b.CumulativeEpsilon != 1 || b.LastWindow != 1 {
		t.Errorf("bob's acknowledged charge lost across snapshot compaction: %+v", b)
	}
	// And the compacted journal is append-clean.
	if err := re.AppendCharge(stream.ChargeRecord{User: "carol", Window: 1, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	got, err = recoveredState(t, re, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Users) != 3 {
		t.Fatalf("append after compaction: users = %+v", got.Users)
	}
}
