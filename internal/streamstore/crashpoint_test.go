package streamstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// The crash-point sweep: run one ingest → seal → snapshot → compact
// cycle on a fault-injecting filesystem, crash at EVERY numbered
// filesystem operation in turn (including torn variants of every
// write), recover with the real filesystem, and assert the recovery
// contract at each point:
//
//  1. recovery succeeds;
//  2. no acknowledged charge is lost (budgets only ever err toward
//     charging more, never less);
//  3. the recovered engine is equivalent — within 1e-9, probed by
//     ingesting fresh claims and closing a window — to an
//     uninterrupted engine that processed either every logical step
//     completed before the crash, or those steps plus the one in
//     flight (the crashing operation's step atomically happened or
//     didn't; nothing in between).
//
// The sweep is what turns the DURABILITY.md contract from
// spot-checked ("we killed it between operations a few times") into
// enumerated: torn writes inside group commit, a crash between a
// snapshot's rename and its compaction, a half-created segment file —
// every one is a case in this table. When a case fails, the faulty
// filesystem's op log is written to $CRASH_ARTIFACT_DIR (the CI
// crash-matrix job uploads it), making the crash point reproducible
// from the artifact alone.

// sweepStep is one logical operation of the crash-cycle workload.
type sweepStep struct {
	kind   string // "ingest" or "close"
	user   string
	claims []stream.Claim
}

const sweepWindows = 4

func sweepConfig() stream.Config {
	return stream.Config{
		NumObjects: 3,
		NumShards:  1, // deterministic fold order, so oracles match bit-for-bit
		Decay:      0.9,
		Lambda1:    1.5,
		Lambda2:    2,
		Delta:      0.3,
	}
}

func sweepOptions() Options {
	return Options{
		SegmentBytes:  384, // a few records per segment: rolls mid-cycle
		SnapshotEvery: 2,   // snapshots + compaction at closes 2 and 4
		ResultHistory: 3,
	}
}

// The sweep's charge records are padded, through their user IDs, to the
// lengths the JSON-line journal gave them (frame header included): user-0
// to user-2, then race-0 to race-3. The segment cap then rolls at the
// same records, and every crash point keeps its op number and its label
// (opNNN-tornLEN, LEN half the record). user-0's is one byte longer (127
// halves like 126), and so is its ID in every snapshot: that byte stands
// in for the estimator-state length the snapshot encoding no longer
// carries, so the snapshots' torn labels hold too.
var (
	sweepUserRecordLens = [3]int{127, 128, 126}
	sweepRaceRecordLens = [4]int{125, 127, 125, 127}
)

// paddedUser pads base so that its charge record carrying claims is
// recLen bytes long. Windows below 64 all encode in one byte, so the ID
// is the same in every window of the sweep.
func paddedUser(base string, recLen int, claims []stream.Claim) string {
	rec, err := appendChargeRecord(nil, stream.ChargeRecord{User: base, Claims: claims})
	if err != nil || len(rec) > recLen {
		panic(fmt.Sprintf("paddedUser(%q): %d-byte record, want at most %d (%v)", base, len(rec), recLen, err))
	}
	return base + strings.Repeat("-", recLen-len(rec))
}

// sweepSteps is the deterministic workload: three users per window,
// four windows, a close after each window's ingests. Before window 3's
// close it replays the snapshot/ingest race deterministically:
// "race-mark" captures the covered position and exports the state (as
// SnapshotEngine would), then enough race ingests land — and roll the
// active segment — before "race-snapshot" writes the stale snapshot.
// The compaction that follows then faces a SEALED segment only
// partially covered by the snapshot: the boundary segment the covered
// JournalPos exists for. Deleting it would lose acknowledged charges,
// which invariant 2 catches at every crash point in and after it.
func sweepSteps() []sweepStep {
	var steps []sweepStep
	for w := 0; w < sweepWindows; w++ {
		for u := 0; u < 3; u++ {
			claims := []stream.Claim{
				{Object: u % 3, Value: float64(w) + 0.5*float64(u)},
				{Object: (u + 1) % 3, Value: 2*float64(w) - float64(u) + 0.25},
			}
			steps = append(steps, sweepStep{
				kind:   "ingest",
				user:   paddedUser(fmt.Sprintf("user-%d", u), sweepUserRecordLens[u], claims),
				claims: claims,
			})
		}
		if w == 2 {
			steps = append(steps, sweepStep{kind: "race-mark"})
			for r := 0; r < 4; r++ { // 4 records > SegmentBytes: forces a roll past the mark
				claims := []stream.Claim{
					{Object: r % 3, Value: 3.5 - float64(r)},
					{Object: (r + 2) % 3, Value: 0.5 * float64(r)},
				}
				steps = append(steps, sweepStep{
					kind:   "ingest",
					user:   paddedUser(fmt.Sprintf("race-%d", r), sweepRaceRecordLens[r], claims),
					claims: claims,
				})
			}
			steps = append(steps, sweepStep{kind: "race-snapshot"})
		}
		steps = append(steps, sweepStep{kind: "close"})
	}
	return steps
}

// runSweepCycle executes the workload against dir on fsys, mirroring
// what crowd.StreamServer does per close (SaveResult, then
// MaybeSnapshotEngine), with a final graceful-shutdown snapshot. It
// returns how many logical steps fully completed and the per-user
// epsilon acknowledged as durable (counted only after AppendCharge
// succeeded, i.e. after the engine acked the submission).
func runSweepCycle(fsys storefs.FS, dir string) (completed int, acked map[string]float64, err error) {
	acked = make(map[string]float64)
	opts := sweepOptions()
	opts.FS = fsys
	store, err := OpenWith(dir, opts)
	if err != nil {
		return 0, acked, err
	}
	defer func() { _ = store.Close() }()
	cfg := sweepConfig()
	cfg.Ledger = store
	cfg.ClaimWAL = true
	e, err := stream.New(cfg)
	if err != nil {
		return 0, acked, err
	}
	defer func() { _ = e.Close() }()

	eps := e.EpsilonPerWindow()
	var racePos JournalPos
	var raceState *stream.EngineState
	for i, step := range sweepSteps() {
		switch step.kind {
		case "ingest":
			if _, _, err := e.Ingest(step.user, step.claims); err != nil {
				return i, acked, err
			}
			acked[step.user] += eps
		case "race-mark":
			// SnapshotEngine's first half, frozen: the covered position and
			// the quiesced export. No filesystem I/O happens here.
			racePos = store.JournalPos()
			if raceState, err = e.ExportState(); err != nil {
				return i, acked, err
			}
		case "race-snapshot":
			// The second half, after acknowledged ingests rolled the active
			// segment past the mark: the compaction below must preserve the
			// partially-covered sealed boundary segment.
			if err := store.WriteSnapshot(raceState, racePos); err != nil {
				return i, acked, err
			}
		case "close":
			res, err := e.CloseWindow()
			if err != nil {
				return i, acked, err
			}
			if err := store.SaveResult(res); err != nil {
				return i, acked, err
			}
			if _, err := store.MaybeSnapshotEngine(e); err != nil {
				return i, acked, err
			}
		}
		completed = i + 1
	}
	// Graceful shutdown writes a final snapshot (crowd.StreamServer.Close
	// does the same); in the sweep it extends coverage to a crash inside
	// a full-coverage compaction.
	if err := store.SnapshotEngine(e); err != nil {
		return completed, acked, err
	}
	return completed, acked, nil
}

// oracleProbe runs the first n logical steps on a fresh in-memory
// engine, then the probe (a new user claiming every object, one window
// close), returning the probe's published result.
func oracleProbe(t *testing.T, n int) *stream.WindowResult {
	t.Helper()
	e := mustEngine(t, sweepConfig())
	defer func() { _ = e.Close() }()
	for _, step := range sweepSteps()[:n] {
		switch step.kind {
		case "ingest":
			if _, _, err := e.Ingest(step.user, step.claims); err != nil {
				t.Fatalf("oracle(%d) ingest: %v", n, err)
			}
		case "close":
			if _, err := e.CloseWindow(); err != nil {
				t.Fatalf("oracle(%d) close: %v", n, err)
			}
			// race-mark / race-snapshot have no engine effect.
		}
	}
	return probeEngine(t, e)
}

func probeEngine(t *testing.T, e *stream.Engine) *stream.WindowResult {
	t.Helper()
	if _, _, err := e.Ingest("probe-user", []stream.Claim{
		{Object: 0, Value: 1.5}, {Object: 1, Value: -2.25}, {Object: 2, Value: 0.75},
	}); err != nil {
		t.Fatalf("probe ingest: %v", err)
	}
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatalf("probe close: %v", err)
	}
	return res
}

// resultsEquivalent compares two probe results within tol.
func resultsEquivalent(a, b *stream.WindowResult, tol float64) bool {
	if a.Window != b.Window || a.TotalClaims != b.TotalClaims || len(a.Truths) != len(b.Truths) {
		return false
	}
	for i := range a.Truths {
		if a.Covered[i] != b.Covered[i] {
			return false
		}
		if a.Covered[i] && math.Abs(a.Truths[i]-b.Truths[i]) > tol {
			return false
		}
	}
	if len(a.Weights) != len(b.Weights) {
		return false
	}
	for id, w := range a.Weights {
		if math.Abs(b.Weights[id]-w) > tol {
			return false
		}
	}
	return true
}

// dumpOpLog writes the faulty filesystem's op log where the CI
// crash-matrix job can upload it, so a failing crash point reproduces
// from the artifact alone.
func dumpOpLog(t *testing.T, fy *storefs.Faulty, label string) {
	t.Helper()
	dir := os.Getenv("CRASH_ARTIFACT_DIR")
	if dir == "" {
		t.Logf("op log (%s):\n%s", label, fy.OpLogString())
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("crash-%s.oplog", label))
	if err := os.WriteFile(path, []byte(fy.OpLogString()), 0o644); err != nil {
		t.Logf("write op log: %v", err)
		return
	}
	t.Logf("op log written to %s", path)
}

// sweepDisk builds the disk of one crash case: the filesystem the
// workload runs on, and a func returning the one the restarted process
// finds after the crash.
type sweepDisk func() (run storefs.FS, afterCrash func() storefs.FS)

// osDisk is the real filesystem: a crash is a crash-stop, everything
// written before it stays.
func osDisk() (storefs.FS, func() storefs.FS) {
	return storefs.OS{}, func() storefs.FS { return storefs.OS{} }
}

// modelDisk is the lying disk: after the crash-stop, the power cut keeps
// what mode says of everything not yet synced.
func modelDisk(mode storefs.CrashMode) sweepDisk {
	return func() (storefs.FS, func() storefs.FS) {
		m := storefs.NewModel()
		return m, func() storefs.FS { m.Crash(mode); return m }
	}
}

// TestCrashPointSweep enumerates the cycle's filesystem operations with
// a pilot run, then crashes at each in turn (and again with the write
// torn in half, when the op is a write) and asserts the recovery
// contract.
func TestCrashPointSweep(t *testing.T) {
	runCrashPointSweep(t, osDisk)
}

// TestCrashPointSweepModel is the same sweep on storefs.Model, once per
// crash mode: a crash also loses (or tears) every write, size change and
// namespace change not yet made durable by its sync, so a missing fsync
// or directory sync on the path to an ack shows up as a lost charge.
func TestCrashPointSweepModel(t *testing.T) {
	for _, mode := range storefs.CrashModes {
		t.Run(mode.String(), func(t *testing.T) { runCrashPointSweep(t, modelDisk(mode)) })
	}
}

func runCrashPointSweep(t *testing.T, disk sweepDisk) {
	const tol = 1e-9
	steps := sweepSteps()

	// Pilot: no faults, just the op enumeration.
	run, _ := disk()
	pilot := storefs.NewFaulty(run)
	if _, _, err := runSweepCycle(pilot, t.TempDir()); err != nil {
		t.Fatalf("pilot cycle: %v", err)
	}
	pilotOps := pilot.Ops()
	if len(pilotOps) < 40 {
		t.Fatalf("pilot enumerated only %d ops — the cycle is not exercising the store", len(pilotOps))
	}

	// Oracles: the probe outcome after every logical prefix.
	oracles := make([]*stream.WindowResult, len(steps)+1)
	for n := 0; n <= len(steps); n++ {
		oracles[n] = oracleProbe(t, n)
	}

	for _, tc := range storefs.CrashPoints(pilotOps) {
		tc := tc
		t.Run(tc.Label, func(t *testing.T) {
			label := strings.ReplaceAll(t.Name(), "/", "-")
			dir := t.TempDir()
			run, afterCrash := disk()
			fy := storefs.NewFaulty(run)
			fy.CrashAt(tc.Op, tc.Tear)
			completed, acked, err := runSweepCycle(fy, dir)
			if err == nil {
				// The crash point landed after the workload's last op (the
				// pilot's tail belongs to Close); nothing to recover against.
				if !fy.Crashed() {
					t.Fatalf("crash at op %d never fired", tc.Op)
				}
				completed = len(steps)
			}

			// Recover as a restarted process would.
			opts := sweepOptions()
			opts.FS = afterCrash()
			store, err := OpenWith(dir, opts)
			if err != nil {
				dumpOpLog(t, fy, label)
				t.Fatalf("recovery open: %v", err)
			}
			defer func() { _ = store.Close() }()
			rec := mustEngine(t, sweepConfig())
			defer func() { _ = rec.Close() }()
			if _, err := store.Recover(rec); err != nil {
				dumpOpLog(t, fy, label)
				t.Fatalf("recover after crash at op %d: %v", tc.Op, err)
			}

			// Invariant 2: every acknowledged charge survived.
			st, err := rec.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			recovered := make(map[string]float64, len(st.Users))
			for _, u := range st.Users {
				recovered[u.ID] = u.CumulativeEpsilon
			}
			for user, want := range acked {
				if recovered[user] < want-tol {
					dumpOpLog(t, fy, label)
					t.Errorf("user %s recovered epsilon %v < acknowledged %v: acknowledged charge lost",
						user, recovered[user], want)
				}
			}

			// Invariant 3: equivalence to an uninterrupted engine that saw
			// the completed prefix, with or without the in-flight step.
			got := probeEngine(t, rec)
			withL, withL1 := oracles[completed], oracles[completed]
			if completed < len(steps) {
				withL1 = oracles[completed+1]
			}
			if !resultsEquivalent(got, withL, tol) && !resultsEquivalent(got, withL1, tol) {
				dumpOpLog(t, fy, label)
				t.Errorf("crash at op %d (step %d): recovered probe matches neither oracle(%d) nor oracle(%d)\n got: window %d claims %d truths %v",
					tc.Op, completed, completed, completed+1, got.Window, got.TotalClaims, got.Truths)
			}
		})
	}
}

// TestFailedSyncIsTransient: a single failed fsync mid-batch must fail
// that submission (charge rolled back, ErrLedger to the caller) without
// wedging the store — the next append lands cleanly and recovery sees
// exactly the acknowledged records.
func TestFailedSyncIsTransient(t *testing.T) {
	for failN := 1; failN <= 6; failN++ {
		t.Run(fmt.Sprintf("sync%d", failN), func(t *testing.T) {
			dir := t.TempDir()
			fy := storefs.NewFaulty(storefs.OS{})
			fy.FailSync(failN)
			opts := sweepOptions()
			opts.FS = fy
			store, err := OpenWith(dir, opts)
			if err != nil {
				// The injected failure hit Open's repair/creation sync;
				// transient by contract: a second Open must succeed.
				if !errors.Is(err, storefs.ErrInjected) {
					t.Fatalf("open: %v", err)
				}
				store, err = OpenWith(dir, opts)
				if err != nil {
					t.Fatalf("reopen after transient sync failure: %v", err)
				}
			}
			defer func() { _ = store.Close() }()

			var okUsers []string
			for i := 0; i < 8; i++ {
				user := fmt.Sprintf("u%d", i)
				err := store.AppendCharge(stream.ChargeRecord{User: user, Window: 0, Epsilon: 1})
				if err == nil {
					okUsers = append(okUsers, user)
				} else if !errors.Is(err, storefs.ErrInjected) {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			if len(okUsers) < 7 {
				t.Fatalf("only %d/8 appends survived one injected sync failure", len(okUsers))
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			re := mustOpen(t, dir)
			defer func() { _ = re.Close() }()
			st, err := recoveredState(t, re, bareCfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]bool)
			if st != nil {
				for _, u := range st.Users {
					got[u.ID] = true
				}
			}
			for _, user := range okUsers {
				if !got[user] {
					t.Errorf("acknowledged append for %s missing after recovery", user)
				}
			}
		})
	}
}
