package streamstore

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// The batch crash-point sweep: a one-shot (batch) campaign is one window
// of the streaming engine, so its durable leg is the claim journal plus
// the one published result. The workload boots a store, takes eight
// devices' submissions into window 1 under the claim WAL, closes the
// window, persists the result and snapshots, as crowd.StreamServer does
// per close. The sweep crashes at every filesystem operation of it and
// asserts the batch contract on recovery: every acknowledged submission
// is still charged, the recovered engine is the one that saw exactly the
// acknowledged submissions (with or without the one in flight), and a
// recovered result is the whole campaign's — never one of a partial
// campaign.
//
// The crash points keep the op numbers and labels of the batch WAL's
// sweep that this one replaced: records are padded, through the device
// IDs, to its record lengths (37 bytes, and 59 for the two devices that
// report every object), a segment rolls after each of those two, and
// the reader checks that no result is published yet sit where that WAL's
// result saves did.

// batchDevice is one device of the campaign workload.
type batchDevice struct {
	user   string
	claims []stream.Claim
}

const batchSweepDevices = 8

// batchDevices is the deterministic fleet: devices 3 and 6 report all
// three objects, every other device one.
func batchDevices() []batchDevice {
	devices := make([]batchDevice, batchSweepDevices)
	for i := range devices {
		claims := []stream.Claim{{Object: i % 3, Value: float64(i) + 0.25}}
		recLen := 37
		if batchReportsAll(i) {
			claims = []stream.Claim{
				{Object: 0, Value: float64(i) - 1},
				{Object: 1, Value: 0.5 * float64(i)},
				{Object: 2, Value: 2 - float64(i)},
			}
			recLen = 59
		}
		devices[i] = batchDevice{user: paddedUser(fmt.Sprintf("client-%02d", i), recLen, claims), claims: claims}
	}
	return devices
}

func batchReportsAll(i int) bool { return i == 3 || i == 6 }

// batchSweepOptions: serial appends, and a segment cap that the
// all-object records cross (3×37+59 and 2×37+59 bytes), so each of them
// rolls the segment.
func batchSweepOptions() Options {
	return Options{MaxBatch: 1, SegmentBytes: 128}
}

// errEarlyResult fails the workload when a result shows up before the
// window closed.
var errEarlyResult = errors.New("result published before the campaign's window closed")

// runBatchCycle runs the campaign on fsys. It returns how many logical
// steps (the eight submissions, then the close) completed, the epsilon
// acknowledged per device, and whether the close was acknowledged:
// the result saved.
func runBatchCycle(fsys storefs.FS, dir string) (completed int, acked map[string]float64, published bool, err error) {
	acked = make(map[string]float64)
	opts := batchSweepOptions()
	opts.FS = fsys
	store, err := OpenWith(dir, opts)
	if err != nil {
		return 0, acked, false, err
	}
	defer func() { _ = store.Close() }()
	cfg := sweepConfig()
	cfg.Ledger = store
	cfg.ClaimWAL = true
	e, err := stream.New(cfg)
	if err != nil {
		return 0, acked, false, err
	}
	defer func() { _ = e.Close() }()

	// A fresh campaign has published nothing.
	history, err := store.LoadResultHistory()
	if err != nil {
		return 0, acked, false, err
	}
	if len(history) > 0 {
		return 0, acked, false, errEarlyResult
	}
	notPublished := func() error {
		body, err := readEnvelope(fsys, filepath.Join(dir, resultName))
		if err == nil && body != nil {
			err = errEarlyResult
		}
		return err
	}

	eps := e.EpsilonPerWindow()
	for i, d := range batchDevices() {
		if batchReportsAll(i) {
			if err := notPublished(); err != nil {
				return completed, acked, false, err
			}
		}
		if _, _, err := e.Ingest(d.user, d.claims); err != nil {
			return completed, acked, false, err
		}
		acked[d.user] += eps
		completed++
	}
	if err := notPublished(); err != nil {
		return completed, acked, false, err
	}
	res, err := e.CloseWindow()
	if err != nil {
		return completed, acked, false, err
	}
	if err := store.SaveResult(res); err != nil {
		return completed, acked, false, err
	}
	completed++
	if _, err := store.MaybeSnapshotEngine(e); err != nil {
		return completed, acked, true, err
	}
	return completed, acked, true, nil
}

// batchOracle runs the first n logical steps of the campaign on a fresh
// in-memory engine. It returns the campaign's published result when the
// close is among them (nil otherwise), then the probe's result.
func batchOracle(t *testing.T, n int) (campaign, probe *stream.WindowResult) {
	t.Helper()
	e := mustEngine(t, sweepConfig())
	defer func() { _ = e.Close() }()
	for i, d := range batchDevices() {
		if i == n {
			break
		}
		if _, _, err := e.Ingest(d.user, d.claims); err != nil {
			t.Fatalf("oracle(%d) ingest: %v", n, err)
		}
	}
	if n > batchSweepDevices {
		var err error
		if campaign, err = e.CloseWindow(); err != nil {
			t.Fatalf("oracle(%d) close: %v", n, err)
		}
	}
	return campaign, probeEngine(t, e)
}

// TestBatchCrashPointSweep crashes at every filesystem operation of the
// one-window campaign (journal appends and their segment rolls, the
// result save with its temp/rename dance, the snapshot and compaction,
// torn variants of every write) and asserts the batch contract: no
// acknowledged submission is lost, the recovered engine saw exactly the
// acknowledged submissions or those plus the one in flight, and the
// recovered result is the whole campaign's or absent — never torn, never
// a partial campaign's.
func TestBatchCrashPointSweep(t *testing.T) {
	runBatchCrashPointSweep(t, osDisk)
}

// TestBatchCrashPointSweepModel is the same sweep on storefs.Model, once
// per crash mode: a submission or result acknowledged before its fsync,
// or a segment whose name was never made durable, shows up as a lost
// charge or result.
func TestBatchCrashPointSweepModel(t *testing.T) {
	for _, mode := range storefs.CrashModes {
		t.Run(mode.String(), func(t *testing.T) { runBatchCrashPointSweep(t, modelDisk(mode)) })
	}
}

func runBatchCrashPointSweep(t *testing.T, disk sweepDisk) {
	const tol = 1e-9
	const steps = batchSweepDevices + 1

	run, _ := disk()
	pilot := storefs.NewFaulty(run)
	if _, _, _, err := runBatchCycle(pilot, t.TempDir()); err != nil {
		t.Fatalf("pilot: %v", err)
	}
	pilotOps := pilot.Ops()
	rolls := 0
	for _, op := range pilotOps {
		if op.Kind == storefs.OpOpen && filepath.Base(op.Path) == resultName+".tmp" {
			break // the close: every roll before it is an ingest's
		}
		if op.Kind == storefs.OpOpen && filepath.Base(op.Path) == segmentFileName(2+int64(rolls)) {
			rolls++
		}
	}
	if rolls < 2 {
		t.Fatalf("workload rolled the journal segment %d times, want the two all-object devices to roll it", rolls)
	}

	campaign, _ := batchOracle(t, steps)
	probes := make([]*stream.WindowResult, steps+1)
	for n := range probes {
		_, probes[n] = batchOracle(t, n)
	}

	for _, tc := range storefs.CrashPoints(pilotOps) {
		tc := tc
		t.Run(tc.Label, func(t *testing.T) {
			label := strings.ReplaceAll(t.Name(), "/", "-")
			dir := t.TempDir()
			run, afterCrash := disk()
			fy := storefs.NewFaulty(run)
			fy.CrashAt(tc.Op, tc.Tear)
			completed, acked, published, err := runBatchCycle(fy, dir)
			if err == nil && !fy.Crashed() {
				t.Fatalf("crash at op %d never fired", tc.Op)
			}

			opts := batchSweepOptions()
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
					t.Errorf("device %s recovered epsilon %v < acknowledged %v: acknowledged submission lost",
						user, recovered[user], want)
				}
			}

			res, found := rec.ResultAt(1)
			switch {
			case found && !truthsEqual(res, campaign, tol):
				dumpOpLog(t, fy, label)
				t.Errorf("recovered result %v is not the campaign's %v", res.Truths, campaign.Truths)
			case !found && published:
				dumpOpLog(t, fy, label)
				t.Errorf("acknowledged campaign result lost")
			}

			got := probeEngine(t, rec)
			withL, withL1 := probes[completed], probes[min(completed+1, steps)]
			if !resultsEquivalent(got, withL, tol) && !resultsEquivalent(got, withL1, tol) {
				dumpOpLog(t, fy, label)
				t.Errorf("crash at op %d (step %d): recovered probe matches neither oracle(%d) nor oracle(%d)\n got: window %d claims %d truths %v",
					tc.Op, completed, completed, completed+1, got.Window, got.TotalClaims, got.Truths)
			}
		})
	}
}

// truthsEqual compares two published results' windows, coverage and
// truths within tol.
func truthsEqual(a, b *stream.WindowResult, tol float64) bool {
	if a.Window != b.Window || len(a.Truths) != len(b.Truths) {
		return false
	}
	for i := range a.Truths {
		if a.Covered[i] != b.Covered[i] || (a.Covered[i] && math.Abs(a.Truths[i]-b.Truths[i]) > tol) {
			return false
		}
	}
	return true
}
