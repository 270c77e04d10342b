package streamstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pptd/internal/stream"
)

// TestSnapshotVersionGuardsDowngrade: the snapshot keeps its file name
// across format changes, so a binary from the other side of one must
// fail loudly rather than start fresh and hand users their spent epsilon
// back. Backwards: the file is not JSON, so a rolled-back JSON-era
// binary dies on its first byte ("invalid character") instead of
// restoring nothing while ignoring the journal. Forwards: this binary
// refuses a format version it does not know even when the file's
// checksum verifies — a newer one, and version 1, whose payload carried
// an estimator-state field version 2 dropped; the snapshot and the
// cluster-close record each refuse with their own corruption sentinel.
// Results stay JSON envelope version 1: every version reads them.
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
	readEnv := func(name string) ([]byte, envelope, error) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		return data, env, json.Unmarshal(data, &env)
	}
	snap, _, err := readEnv(snapshotName)
	if err == nil {
		t.Error("snapshot parses as a JSON envelope: a JSON-era binary would not refuse it")
	}
	if string(snap[:4]) != snapshotMagic || snap[4] != stateFileVersion {
		t.Errorf("snapshot header = %q version %d, want %q version %d", snap[:4], snap[4], snapshotMagic, stateFileVersion)
	}
	if _, env, err := readEnv(resultName); err != nil || env.Version != envelopeVersion {
		t.Errorf("result envelope version = %d (%v), want %d (old binaries keep reading results)", env.Version, err, envelopeVersion)
	}

	if err := s.SaveClusterClose(&ClusterCloseState{Window: 1, State: []byte{}}); err != nil {
		t.Fatal(err)
	}
	record, err := os.ReadFile(filepath.Join(dir, clusterCloseName))
	if err != nil {
		t.Fatal(err)
	}

	// Files in another format, each intact by its own checksum.
	rewrite := func(name string, file []byte, version byte) {
		t.Helper()
		file[4] = version
		binary.LittleEndian.PutUint32(file[stateCRCOffset:], stateFileCRC(file))
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, version := range []byte{1, stateFileVersion + 1} {
		want := fmt.Sprintf("version %d", version)
		rewrite(snapshotName, snap, version)
		if _, err := recoveredState(t, s, bareCfg); !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), want) {
			t.Errorf("Recover on a version-%d snapshot = %v, want ErrCorruptSnapshot naming the version", version, err)
		}
		rewrite(clusterCloseName, record, version)
		if _, err := s.LoadClusterClose(); !errors.Is(err, ErrCorruptClusterClose) || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadClusterClose on a version-%d record = %v, want ErrCorruptClusterClose naming the version", version, err)
		}
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
	st, err := recoveredState(t, re, bareCfg)
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

// TestOpenRefusesLegacyJournal: a journal this version does not read is
// neither read, ignored nor repaired — opening around it, or truncating it
// as a torn tail, would hand every user it records their spent epsilon
// back — so Open fails with the typed error naming the file and leaves it
// byte-identical. That covers a pre-segmentation ledger.journal (on a
// fresh directory and next to live segments), a JSON-era active
// segment, sealed segment and users.spill (whose lines the binary reader
// would otherwise take for a torn tail at offset 0), and a JSON-era
// batch.wal, which TestOpenRefusesBatchCampaignFiles covers in full.
// Removing the file is the operator's explicit decision; after it the
// directory opens normally.
func TestOpenRefusesLegacyJournal(t *testing.T) {
	payload := []byte(`{"user":"a","window":0,"epsilon":1}`)
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	jsonEra := []byte(line + line + `deadbeef {"user"`) // two records and a torn tail

	// liveDir is a directory this version wrote: a sealed and an active
	// segment and a spill file.
	liveDir := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenWith(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := s.AppendCharge(stream.ChargeRecord{User: fmt.Sprintf("u%d", i), Window: 0, Epsilon: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SpillUsers([]stream.UserSpill{spillOf("u0", 1, 1)}); err != nil {
			t.Fatal(err)
		}
		if s.Stats(false).SegmentsSealed == 0 {
			t.Fatal("the live directory has no sealed segment")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	freshDir := func(t *testing.T) string { return t.TempDir() }

	for _, tc := range []struct {
		name    string
		dir     func(*testing.T) string
		file    string
		content []byte
	}{
		{"ledger.journal", freshDir, legacyJournalName, []byte("stale\n")},
		{"ledger.journal next to segments", liveDir, legacyJournalName, []byte("stale\n")},
		{"active segment", freshDir, segmentFileName(1), jsonEra},
		{"sealed segment", liveDir, segmentFileName(1), jsonEra},
		{"batch.wal", liveDir, "batch.wal", jsonEra},
		{"users.spill", liveDir, spillName, jsonEra},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.dir(t)
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir)
			if !errors.Is(err, ErrLegacyJournal) || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open = %v, want ErrLegacyJournal naming %s", err, path)
			}
			if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, tc.content) {
				t.Fatalf("refused Open touched %s: %q, %v", tc.file, data, err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			s := mustOpen(t, dir)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenRefusesBatchCampaignFiles: the retired batch campaign's WAL
// and result are refused by name, empty or not, before Open repairs
// anything: the directory, whose active segment still carries the
// preallocated tail a normal Open truncates, is left byte-identical.
// Removing the file is the operator's decision; after it the directory
// opens normally and its charges are all there.
func TestOpenRefusesBatchCampaignFiles(t *testing.T) {
	readDir := func(t *testing.T, dir string) map[string][]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}
	for _, name := range []string{"batch.wal", "batch-result.json"} {
		for _, content := range [][]byte{{}, []byte(`{"truths":[1.5],"method":"crh"}` + "\n")} {
			t.Run(fmt.Sprintf("%s/%d-bytes", name, len(content)), func(t *testing.T) {
				dir := t.TempDir()
				s := mustOpen(t, dir)
				for i := 0; i < 3; i++ {
					if err := s.AppendCharge(stream.ChargeRecord{User: fmt.Sprintf("u%d", i), Epsilon: 1}); err != nil {
						t.Fatal(err)
					}
				}
				// Crash without Close: the preallocated tail stays.
				if err := unlockFile(s.lock); err != nil {
					t.Fatal(err)
				}
				_, _ = s.active.Close(), s.lock.Close()
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
				before := readDir(t, dir)

				_, err := Open(dir)
				if !errors.Is(err, ErrLegacyJournal) || !strings.Contains(err.Error(), path) {
					t.Fatalf("Open = %v, want ErrLegacyJournal naming %s", err, path)
				}
				after := readDir(t, dir)
				if len(after) != len(before) {
					t.Fatalf("refused Open changed the directory: %d files, had %d", len(after), len(before))
				}
				for f, data := range before {
					if !bytes.Equal(after[f], data) {
						t.Fatalf("refused Open touched %s", f)
					}
				}

				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				re := mustOpen(t, dir)
				defer func() { _ = re.Close() }()
				st, err := recoveredState(t, re, bareCfg)
				if err != nil || st == nil || len(st.Users) != 3 {
					t.Fatalf("recovered %+v, %v; want the 3 charged users", st, err)
				}
			})
		}
	}
}

// TestLegacyRecordFileNeverMatchesBinary: the JSON-era check looks at a
// file's first nine bytes, and no binary record starts with eight hex
// digits: maxRecordPayload keeps a header's fourth byte at or below 0x04,
// whatever the other eight bytes hold.
func TestLegacyRecordFileNeverMatchesBinary(t *testing.T) {
	for _, n := range []uint32{1, 0x00303030, maxRecordPayload} {
		head := append(binary.LittleEndian.AppendUint32(nil, n), "0000 "...) // a hex-digit CRC, then a space
		if legacyRecordFile(head) {
			t.Errorf("the header of a %d-byte payload reads as JSON-era: % x", n, head)
		}
	}
}
