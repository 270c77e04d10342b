package streamstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// TestCompactionDeletesCoveredSegmentsWithoutRewrite is the segmented
// journal's reason to exist: with several sealed segments on disk, a
// snapshot's compaction must delete the fully-covered ones outright —
// O(segments) — and leave every surviving byte untouched, including the
// partially-covered boundary segment whose uncovered tail is still the
// only durable trace of acknowledged charges. The storefs op log proves
// the "no rewrite" half: after the snapshot lands, the only journal
// I/O is Remove.
func TestCompactionDeletesCoveredSegmentsWithoutRewrite(t *testing.T) {
	dir := t.TempDir()
	fy := storefs.NewFaulty(storefs.OS{}) // no faults: pure op logger
	s, err := OpenWith(dir, Options{
		FS:            fy,
		MaxBatch:      1,
		SegmentBytes:  64, // three 26-byte charge records per segment
		SnapshotEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	addCharge := func(i int) {
		t.Helper()
		if err := s.AppendCharge(stream.ChargeRecord{
			User: fmt.Sprintf("user-%02d", i), Window: 0, Epsilon: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// First half of the workload, then the snapshot's covered position:
	// everything before it is compactable, everything after must survive.
	for i := 0; i < 6; i++ {
		addCharge(i)
	}
	covered := s.JournalPos()
	for i := 6; i < 14; i++ {
		addCharge(i)
	}
	st := s.Stats(false)
	if st.SegmentsSealed < 4 {
		t.Fatalf("workload sealed only %d segments; the test needs >= 4", st.SegmentsSealed)
	}

	// Segment inventory and bytes before compaction.
	segBytes := func() map[string][]byte {
		out := make(map[string][]byte)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if _, ok := parseSegmentName(e.Name()); !ok {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = data
		}
		return out
	}
	before := segBytes()
	opsBefore := fy.OpCount()

	if err := s.WriteSnapshot(&stream.EngineState{Window: 1}, covered); err != nil {
		t.Fatal(err)
	}

	// Covered sealed segments are gone; the boundary segment (the one
	// covered points into) and everything after survive byte-identical.
	after := segBytes()
	var deleted, surviving []string
	for name, data := range before {
		got, ok := after[name]
		seq, _ := parseSegmentName(name)
		fullyCovered := seq < covered.Seq || (seq == covered.Seq && int64(len(data)) <= covered.Off)
		if fullyCovered {
			if ok {
				t.Errorf("covered segment %s still on disk after compaction", name)
			}
			deleted = append(deleted, name)
			continue
		}
		surviving = append(surviving, name)
		if !ok {
			t.Errorf("surviving segment %s deleted by compaction", name)
			continue
		}
		if string(got) != string(data) {
			t.Errorf("surviving segment %s rewritten: %d -> %d bytes", name, len(data), len(got))
		}
	}
	if len(deleted) == 0 || len(surviving) == 0 {
		t.Fatalf("degenerate coverage split: deleted %v surviving %v", deleted, surviving)
	}

	// The op log proves the mechanism: from the snapshot on, journal
	// segments see Remove ops only — no write, no truncate, no rename.
	removes := 0
	for _, op := range fy.Ops()[opsBefore:] {
		if !strings.Contains(op.Path, "journal-") {
			continue
		}
		switch op.Kind {
		case storefs.OpRemove:
			removes++
		case storefs.OpWrite, storefs.OpTruncate, storefs.OpRename, storefs.OpOpen:
			t.Errorf("compaction touched journal bytes: %s", op)
		}
	}
	if removes != len(deleted) {
		t.Errorf("compaction issued %d segment removes, deleted %d segments", removes, len(deleted))
	}
	st = s.Stats(false)
	if int(st.SegmentsDeleted) != len(deleted) {
		t.Errorf("stats: segmentsDeleted %d, want %d", st.SegmentsDeleted, len(deleted))
	}

	// Recovery sees exactly the uncovered records on top of the snapshot.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	got, err := recoveredState(t, re, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	users := make(map[string]bool)
	for _, u := range got.Users {
		users[u.ID] = true
	}
	for i := 6; i < 14; i++ {
		if !users[fmt.Sprintf("user-%02d", i)] {
			t.Errorf("post-mark user-%02d lost by compaction", i)
		}
	}
}

// TestSegmentRollKeepsAppendsFlowing: the size cap seals segments
// mid-stream without disturbing appends, and a reopened store continues
// in the highest segment rather than resurrecting old names.
func TestSegmentRollKeepsAppendsFlowing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{MaxBatch: 1, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.AppendCharge(stream.ChargeRecord{User: fmt.Sprintf("u%d", i), Window: 0, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	pos := s.JournalPos()
	if pos.Seq < 3 {
		t.Fatalf("active segment seq = %d after %d appends at 96-byte cap; rolls not happening", pos.Seq, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	if got := re.JournalPos(); got != pos {
		t.Fatalf("reopened journal position = %+v, want %+v", got, pos)
	}
	if err := re.AppendCharge(stream.ChargeRecord{User: "late", Window: 1, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := recoveredState(t, re, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Users) != n+1 {
		t.Fatalf("recovered %d users, want %d", len(st.Users), n+1)
	}
}
