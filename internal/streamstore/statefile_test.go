package streamstore

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pptd/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden")

// goldenCfg is an engine goldenState restores into.
var goldenCfg = stream.Config{NumObjects: 512, NumShards: 1, Estimator: stream.EstimatorGTM}

// goldenState is the engine state pinned in testdata: a never-charged
// user (lastWindow -1), a two-byte object varint and values JSON could
// not have carried exactly.
func goldenState() *stream.EngineState {
	return &stream.EngineState{
		NumObjects:   512,
		Window:       7,
		WindowClaims: 3,
		TotalClaims:  1 << 33,
		Estimator:    stream.EstimatorGTM,
		Users: []stream.UserSnapshot{
			{ID: "device-001", Carry: 1.5, CumulativeEpsilon: 134.25, LastWindow: 6, Windows: 2},
			{ID: "device-é", Carry: math.Pi, CumulativeEpsilon: 67.125, LastWindow: 5, Windows: 1},
			{ID: "idle", Carry: 1, LastWindow: -1},
		},
		Stats: []stream.StatSnapshot{
			{Object: 0, User: "device-001", Sum: -2.25, Mass: 1},
			{Object: 0, User: "device-é", Sum: math.Copysign(0, -1), Mass: 1e-9},
			{Object: 300, User: "device-001", Sum: math.MaxFloat64, Mass: 0.5},
		},
	}
}

// goldenPayload is goldenState in the engine-state encoding: the
// cluster-close record's payload.
func goldenPayload(t *testing.T) []byte {
	t.Helper()
	payload, err := stream.AppendEngineState(nil, goldenState())
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestStateFilesGolden pins the snapshot and the cluster-close record
// byte for byte, written through the public path. Drift here means a
// deployed state directory no longer loads: bump the format version and
// say so in docs/DURABILITY.md rather than regenerating. The pinned
// bytes must also load back to the source values.
func TestStateFilesGolden(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer func() { _ = s.Close() }()
	covered := JournalPos{Seq: 3, Off: 4096}
	if err := s.WriteSnapshot(goldenState(), covered); err != nil {
		t.Fatal(err)
	}
	record := &ClusterCloseState{Window: 7, Committed: true, State: goldenPayload(t)}
	if err := s.SaveClusterClose(record); err != nil {
		t.Fatal(err)
	}
	for name, golden := range map[string]string{
		snapshotName:     "snapshot.golden",
		clusterCloseName: "cluster-close.golden",
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", golden)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", golden, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the pinned bytes (format break?)\n got %x\nwant %x", name, got, want)
		}
		// Load the pinned bytes, not the ones just written.
		if err := os.WriteFile(filepath.Join(dir, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	st, pos, err := s.loadSnapshotLocked()
	s.mu.Unlock()
	if err != nil || pos != covered || !reflect.DeepEqual(st, goldenState()) {
		t.Errorf("golden snapshot loads as %+v at %+v, %v", st, pos, err)
	}
	cs, err := s.LoadClusterClose()
	if err != nil || !reflect.DeepEqual(cs, record) {
		t.Fatalf("golden cluster-close record loads as %+v, %v", cs, err)
	}
	if st, err := stream.DecodeEngineState(cs.State); err != nil || !reflect.DeepEqual(st, goldenState()) {
		t.Errorf("golden cluster-close payload decodes as %+v, %v", st, err)
	}
}

// TestStateFilesRejectEveryBitFlip: the checksum covers everything
// recovery trusts. Flipping any single bit of a written snapshot or
// cluster-close record — magic, version, covered position, committed
// flag, length, checksum or payload — must fail the load with the file's
// corruption sentinel. (The JSON-era envelope checksummed the state
// alone: a flipped digit of "covered" loaded fine and made recovery skip
// acknowledged charge records.)
func TestStateFilesRejectEveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer func() { _ = s.Close() }()
	if err := s.WriteSnapshot(goldenState(), JournalPos{Seq: 3, Off: 4096}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveClusterClose(&ClusterCloseState{Window: 7, State: goldenPayload(t)}); err != nil {
		t.Fatal(err)
	}
	files := []struct {
		name    string
		load    func() error
		corrupt error
	}{
		{snapshotName, func() error { _, err := recoveredState(t, s, goldenCfg); return err }, ErrCorruptSnapshot},
		{clusterCloseName, func() error { _, err := s.LoadClusterClose(); return err }, ErrCorruptClusterClose},
	}
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.load(); err != nil {
			t.Fatalf("%s: pristine file does not load: %v", f.name, err)
		}
		for bit := 0; bit < 8*len(pristine); bit++ {
			damaged := append([]byte(nil), pristine...)
			damaged[bit/8] ^= 1 << (bit % 8)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := f.load(); !errors.Is(err, f.corrupt) {
				t.Fatalf("%s: bit %d of byte %d flipped: load = %v, want %v", f.name, bit%8, bit/8, err, f.corrupt)
			}
		}
		// Truncation and growth are damage too.
		for _, damaged := range [][]byte{{}, pristine[:stateHeaderLen-1], pristine[:len(pristine)-1], append(append([]byte(nil), pristine...), 0)} {
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := f.load(); !errors.Is(err, f.corrupt) {
				t.Fatalf("%s: %d of %d bytes: load = %v, want %v", f.name, len(damaged), len(pristine), err, f.corrupt)
			}
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The two files are not interchangeable: same framing, different magic.
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, clusterCloseName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadClusterClose(); !errors.Is(err, ErrCorruptClusterClose) {
		t.Errorf("snapshot bytes under the cluster-close name load: %v", err)
	}
}

// TestOpenRefusesJSONSnapshot: a snapshot or cluster-close record in the
// JSON form earlier versions wrote is neither read nor booted over as if
// the directory were empty — that would hand every user it records
// their spent epsilon back. Open fails with the typed error naming the
// file and touches nothing; removing the file is the operator's
// explicit decision.
func TestOpenRefusesJSONSnapshot(t *testing.T) {
	jsonEra := map[string]string{
		snapshotName:     `{"version":2,"crc32":"00000000","covered":{"seq":1,"off":0},"state":{"numObjects":1,"window":3,"users":[],"stats":null}}`,
		clusterCloseName: `{"version":1,"crc32":"00000000","state":{"window":3,"committed":true,"state":{}}}`,
	}
	for name, body := range jsonEra {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		if err := s.AppendCharge(stream.ChargeRecord{User: "a", Window: 0, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.Is(err, ErrLegacySnapshot) || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: Open = %v, want ErrLegacySnapshot naming %s", name, err, path)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != body {
			t.Fatalf("%s: refused Open touched the file: %q, %v", name, data, err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, dir)
		if st, err := recoveredState(t, re, bareCfg); err != nil || len(st.Users) != 1 {
			t.Errorf("%s: after removal Recover = %+v, %v; want the journaled user", name, st, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
