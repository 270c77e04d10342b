package streamstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pptd/internal/stream"
)

// TestSnapshotVersionGuardsDowngrade: snapshots carrying a covered
// JournalPos are written as envelope version 2, so a rolled-back
// pre-segmentation binary — which accepts only version 1 and knows
// nothing of journal-*.wal — fails loudly ("unsupported version")
// instead of restoring the snapshot while silently dropping every
// charge journaled after it. Results stay version 1: old binaries can
// still read them, and this binary reads both.
func TestSnapshotVersionGuardsDowngrade(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer func() { _ = s.Close() }()
	if err := s.WriteSnapshot(&stream.EngineState{Window: 1}, s.JournalPos()); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveResult(mkResult(1, 2.5)); err != nil {
		t.Fatal(err)
	}
	versionOf := func(name string) int {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		return env.Version
	}
	if v := versionOf(snapshotName); v != segmentedSnapshotVersion {
		t.Errorf("snapshot envelope version = %d, want %d (downgrade guard)", v, segmentedSnapshotVersion)
	}
	if v := versionOf(resultName); v != envelopeVersion {
		t.Errorf("result envelope version = %d, want %d (old binaries keep reading results)", v, envelopeVersion)
	}
}

// TestStraySegmentLookalikesIgnored: files that merely start like a
// segment name (an operator's journal-000000001.wal.bak backup) must
// not register as segments — a duplicate sequence number would replay
// records twice and let compaction delete the live file.
func TestStraySegmentLookalikesIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.AppendCharge(stream.ChargeRecord{User: fmt.Sprintf("u%d", i), Window: 0, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{
		segmentFileName(1) + ".bak", // backup copy of the live segment
		"journal-1.wal",             // unpadded: not a name we ever write
		"journal-000000002.wal.tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, stray), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	if pos := re.JournalPos(); pos.Seq != 1 {
		t.Fatalf("stray look-alike changed the active segment: pos %+v", pos)
	}
	st, err := re.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Users) != 3 {
		t.Fatalf("recovered %d users, want 3 (stray files replayed?)", len(st.Users))
	}
	for _, u := range st.Users {
		if u.CumulativeEpsilon != 1 {
			t.Errorf("user %s epsilon = %v, want 1 (double replay)", u.ID, u.CumulativeEpsilon)
		}
	}
	// A compaction must not touch the stray files either.
	if err := re.WriteSnapshot(&stream.EngineState{Window: 1}, re.JournalPos()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentFileName(1)+".bak")); err != nil {
		t.Errorf("compaction removed the operator's backup: %v", err)
	}
}

// TestOpenRefusesLegacyJournal: a pre-segmentation ledger.journal is
// neither read nor ignored — opening around it would hand every user it
// records their spent epsilon back — so Open fails with the typed error
// naming the file, on a fresh directory and next to live segments alike,
// and touches nothing. Removing the file is the operator's explicit
// decision; after it the directory opens normally.
func TestOpenRefusesLegacyJournal(t *testing.T) {
	for _, withSegments := range []bool{false, true} {
		dir := t.TempDir()
		if withSegments {
			s := mustOpen(t, dir)
			if err := s.AppendCharge(stream.ChargeRecord{User: "a", Window: 0, Epsilon: 1}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		legacy := filepath.Join(dir, legacyJournalName)
		if err := os.WriteFile(legacy, []byte("stale\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.Is(err, ErrLegacyJournal) || !strings.Contains(err.Error(), legacy) {
			t.Fatalf("segments=%v: Open = %v, want ErrLegacyJournal naming %s", withSegments, err, legacy)
		}
		if data, err := os.ReadFile(legacy); err != nil || string(data) != "stale\n" {
			t.Fatalf("segments=%v: refused Open touched the legacy journal: %q, %v", withSegments, data, err)
		}
		if err := os.Remove(legacy); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
