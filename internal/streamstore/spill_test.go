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

func spillOf(id string, eps float64, windows int) stream.UserSpill {
	return stream.UserSpill{
		UserSnapshot: stream.UserSnapshot{
			ID:                id,
			Carry:             1.25,
			CumulativeEpsilon: eps,
			LastWindow:        windows - 1,
			Windows:           windows,
		},
		Estimator: stream.EstimatorCRH,
	}
}

// paddedID lengthens id by pad bytes, so its spill records are that much
// larger.
func paddedID(id string, pad int) string { return id + strings.Repeat("-", pad) }

// TestSpillRoundTrip: spilled users load back exactly, newest record
// wins, the index survives a reopen (including a torn tail), and loads
// of never-spilled users report absence without error.
func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	if err := s.SpillUsers([]stream.UserSpill{
		spillOf("alice", 1.5, 3),
		spillOf("bob", 0.5, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.SpillUsers([]stream.UserSpill{spillOf("alice", 2.0, 4)}); err != nil {
		t.Fatal(err) // newest-wins overwrite
	}
	if _, found, err := s.LoadUser("nobody"); err != nil || found {
		t.Fatalf("LoadUser(nobody) = %v, %v; want absent", found, err)
	}
	sp, found, err := s.LoadUser("alice")
	if err != nil || !found {
		t.Fatalf("LoadUser(alice): %v, %v", found, err)
	}
	if sp.CumulativeEpsilon != 2.0 || sp.Windows != 4 {
		t.Fatalf("alice = %+v, want the newest record", sp)
	}
	if got := s.SpilledUsers(); got != 2 {
		t.Fatalf("SpilledUsers = %d, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record: reopen must keep the durable prefix.
	path := filepath.Join(dir, spillName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := encodeSpill(spillOf("alice", 9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	sp, found, err = re.LoadUser("alice")
	if err != nil || !found {
		t.Fatalf("reopened LoadUser(alice): %v, %v", found, err)
	}
	if sp.CumulativeEpsilon != 2.0 {
		t.Fatalf("reopened alice epsilon = %v, want 2.0", sp.CumulativeEpsilon)
	}
	if _, found, err := re.LoadUser("bob"); err != nil || !found {
		t.Fatalf("reopened LoadUser(bob): %v, %v", found, err)
	}
	if got := re.SpilledUsers(); got != 2 {
		t.Fatalf("reopened SpilledUsers = %d, want 2", got)
	}
}

// TestSpillRejectsBadRecords: an empty ID is refused before anything
// touches the file — it would be indexed live but silently dropped on
// reopen, a split-brain the encoder must prevent.
func TestSpillRejectsBadRecords(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer func() { _ = s.Close() }()
	if err := s.SpillUsers([]stream.UserSpill{{}}); err == nil {
		t.Fatal("empty-ID spill accepted")
	}
	if got := s.SpilledUsers(); got != 0 {
		t.Fatalf("SpilledUsers = %d after rejected spill", got)
	}
}

// TestSpillCompaction: re-spilling the same users past the size
// threshold compacts the file down to one newest record per user, the
// records survive, and a reopen agrees.
func TestSpillCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	// Pad records so overwrites cross spillCompactMinBytes quickly.
	const users, pad = 8, 400
	id := func(u int) string { return paddedID(fmt.Sprintf("user-%02d", u), pad) }
	var rounds int
	for rounds = 0; ; rounds++ {
		batch := make([]stream.UserSpill, users)
		for u := range batch {
			batch[u] = spillOf(id(u), float64(rounds), rounds)
		}
		if err := s.SpillUsers(batch); err != nil {
			t.Fatal(err)
		}
		st := s.Stats(false)
		if st.UserSpills > int64((users*spillCompactMinBytes)/400) {
			t.Fatal("compaction never triggered")
		}
		if fi, err := os.Stat(filepath.Join(dir, spillName)); err == nil &&
			rounds > 2 && fi.Size() <= int64(users*550) {
			break // the file has been compacted down to ~one record per user
		}
	}
	for u := 0; u < users; u++ {
		sp, found, err := s.LoadUser(id(u))
		if err != nil || !found {
			t.Fatalf("LoadUser(user-%02d) after compaction: %v, %v", u, found, err)
		}
		if sp.CumulativeEpsilon != float64(rounds) {
			t.Fatalf("user-%02d epsilon = %v, want %d (newest round)", u, sp.CumulativeEpsilon, rounds)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	if got := re.SpilledUsers(); got != users {
		t.Fatalf("reopened SpilledUsers = %d, want %d", got, users)
	}
}

// runSpillCycle is the user-spill crash workload: rounds of spills (with
// overwrites, so compaction triggers mid-cycle) plus loads. It returns
// the per-user cumulative epsilon acknowledged durable — counted only
// after SpillUsers returned nil, exactly when the engine would have
// dropped the in-memory state.
func runSpillCycle(fsys storefs.FS, dir string) (acked map[string]float64, err error) {
	acked = make(map[string]float64)
	opts := Options{FS: fsys}
	store, err := OpenWith(dir, opts)
	if err != nil {
		return acked, err
	}
	defer func() { _ = store.Close() }()

	// The padding fixes every record's length, and with it the sweep's
	// crash-point labels (a torn write is named by half its length), and
	// makes a few rounds cross the compaction threshold.
	const users, pad = 4, 2228
	for round := 1; round <= 4; round++ {
		batch := make([]stream.UserSpill, users)
		for u := range batch {
			batch[u] = spillOf(paddedID(fmt.Sprintf("user-%d", u), pad), float64(round), round)
		}
		if err := store.SpillUsers(batch); err != nil {
			return acked, err
		}
		for _, sp := range batch {
			acked[sp.ID] = sp.CumulativeEpsilon
		}
		if _, _, err := store.LoadUser(batch[0].ID); err != nil {
			return acked, err
		}
	}
	return acked, nil
}

// TestSpillCrashPointSweep crashes at every filesystem operation of the
// spill workload (appends, fsyncs, and the compaction's whole
// write/rename dance, plus torn variants of every write) and asserts the
// recovery contract: the reopened store loads, for every user whose
// spill was acknowledged, a valid record carrying at least the
// acknowledged epsilon — an exhausted user can never come back cheaper —
// and never returns a corrupt record.
func TestSpillCrashPointSweep(t *testing.T) {
	runSpillCrashPointSweep(t, osDisk)
}

// TestSpillCrashPointSweepModel is the same sweep on storefs.Model, once
// per crash mode: a spill acknowledged before its fsync, or a compaction
// published before its temp file's, shows up as a lost or cheaper user.
func TestSpillCrashPointSweepModel(t *testing.T) {
	for _, mode := range storefs.CrashModes {
		t.Run(mode.String(), func(t *testing.T) { runSpillCrashPointSweep(t, modelDisk(mode)) })
	}
}

func runSpillCrashPointSweep(t *testing.T, disk sweepDisk) {
	run, _ := disk()
	pilot := storefs.NewFaulty(run)
	if _, err := runSpillCycle(pilot, t.TempDir()); err != nil {
		t.Fatalf("pilot: %v", err)
	}
	pilotOps := pilot.Ops()
	if len(pilotOps) < 15 {
		t.Fatalf("pilot enumerated only %d ops", len(pilotOps))
	}
	sawCompactionRename := false
	for _, op := range pilotOps {
		if op.Kind == storefs.OpRename {
			sawCompactionRename = true
		}
	}
	if !sawCompactionRename {
		t.Fatal("workload never triggered a spill compaction — the sweep is not covering it")
	}

	for _, tc := range storefs.CrashPoints(pilotOps) {
		tc := tc
		t.Run(tc.Label, func(t *testing.T) {
			label := strings.ReplaceAll(t.Name(), "/", "-")
			dir := t.TempDir()
			run, afterCrash := disk()
			fy := storefs.NewFaulty(run)
			fy.CrashAt(tc.Op, tc.Tear)
			acked, _ := runSpillCycle(fy, dir)

			re, err := OpenWith(dir, Options{FS: afterCrash()})
			if err != nil {
				dumpOpLog(t, fy, label)
				t.Fatalf("recovery open: %v", err)
			}
			defer func() { _ = re.Close() }()
			for id, wantEps := range acked {
				sp, found, err := re.LoadUser(id)
				if err != nil {
					dumpOpLog(t, fy, label)
					t.Fatalf("LoadUser(%s) after crash: %v", id, err)
				}
				if !found {
					dumpOpLog(t, fy, label)
					t.Fatalf("acknowledged spill for %s lost", id)
				}
				if sp.CumulativeEpsilon < wantEps-1e-12 {
					dumpOpLog(t, fy, label)
					t.Errorf("%s recovered epsilon %v < acknowledged %v: budget state lost",
						id, sp.CumulativeEpsilon, wantEps)
				}
			}
		})
	}
}

// TestSpillAfterCloseFails: the spill surface refuses cleanly once the
// store is closed.
func TestSpillAfterCloseFails(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.SpillUsers([]stream.UserSpill{spillOf("x", 1, 1)}); err != ErrClosed {
		t.Errorf("SpillUsers after close = %v, want ErrClosed", err)
	}
	if _, _, err := s.LoadUser("x"); err != ErrClosed {
		t.Errorf("LoadUser after close = %v, want ErrClosed", err)
	}
}
