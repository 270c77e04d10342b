package crowd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore"
	"pptd/internal/streamstore/storefs"
)

// The StreamServer crash-point sweep: the streamstore package already
// enumerates every filesystem operation of an ingest → close → snapshot
// cycle (see its TestCrashPointSweep); this sweep runs the same contract
// one layer up, through the server's HTTP window-close path — the
// sequence POST /v1/stream/window takes under windowMu (engine close,
// SaveResult, MaybeSnapshotEngine) plus the final graceful-shutdown
// snapshot in Close. Crashing at every numbered operation (and at every
// torn write) must leave a directory a fresh NewStreamServer recovers
// from with no acknowledged charge lost and estimates equivalent to an
// uninterrupted server. The sweep honors PPTD_STREAM_ESTIMATOR, so the
// CI matrix drives it once per estimator — GTM's carried precisions ride
// the same snapshots and must survive the same crash points.

type serverSweepStep struct {
	kind   string // "ingest" or "close"
	user   string
	claims []Claim
}

func serverSweepConfig() stream.Config {
	cfg := stream.Config{
		NumObjects: 3,
		NumShards:  1, // deterministic fold order, so oracles match bit-for-bit
		Decay:      0.9,
		Lambda1:    1.5,
		Lambda2:    2,
		Delta:      0.3,
	}
	if est := os.Getenv("PPTD_STREAM_ESTIMATOR"); est != "" {
		cfg.Estimator = est
	}
	return cfg
}

func serverSweepOptions() streamstore.Options {
	return streamstore.Options{
		SegmentBytes:  384, // a few records per segment: rolls mid-cycle
		SnapshotEvery: 2,   // snapshots + compaction at closes 2 and 4
		ResultHistory: 3,
	}
}

// serverSweepRecordLens are the lengths of user-0 to user-2's charge
// records, the journal frame's header included. They are the lengths the
// JSON-line journal gave the same records, reached by padding the user
// IDs: the segment cap then rolls at the same records, and every crash
// point keeps its op number and its label (opNNN-tornLEN, LEN half the
// record). user-0's is one byte longer (127 halves like 126), and so is
// its ID in every snapshot: that byte stands in for the estimator-state
// length the snapshot encoding no longer carries, so the snapshots' torn
// labels hold too.
var serverSweepRecordLens = [3]int{127, 128, 126}

// journalFrameHeader is a journal record's header: u32 payload length,
// u32 CRC-32 of the payload.
const journalFrameHeader = 8

// paddedSweepUser pads base so that its charge record carrying claims is
// recLen bytes long. Windows below 64 all encode in one byte, so the ID
// is the same in every window of the sweep.
func paddedSweepUser(base string, recLen int, claims []Claim) string {
	n := journalFrameHeader + len(stream.AppendChargeRecord(nil, stream.ChargeRecord{User: base, Claims: claims}))
	if n > recLen {
		panic(fmt.Sprintf("paddedSweepUser(%q): %d-byte record, want at most %d", base, n, recLen))
	}
	return base + strings.Repeat("-", recLen-n)
}

func serverSweepSteps() []serverSweepStep {
	var steps []serverSweepStep
	for w := 0; w < 4; w++ {
		for u := 0; u < 3; u++ {
			claims := []Claim{
				{Object: u % 3, Value: float64(w) + 0.5*float64(u)},
				{Object: (u + 1) % 3, Value: 2*float64(w) - float64(u) + 0.25},
			}
			steps = append(steps, serverSweepStep{
				kind:   "ingest",
				user:   paddedSweepUser(fmt.Sprintf("user-%d", u), serverSweepRecordLens[u], claims),
				claims: claims,
			})
		}
		steps = append(steps, serverSweepStep{kind: "close"})
	}
	return steps
}

// runServerSweepCycle executes the workload against a durable
// StreamServer on fsys, through the HTTP handlers (POST
// /v1/stream/claims and /v1/stream/window), ending with the
// graceful-shutdown snapshot of Close. It returns how many logical
// steps completed (answered 2xx) and the per-user epsilon acknowledged
// as durable.
func runServerSweepCycle(fsys storefs.FS, dir string) (completed int, acked map[string]float64, err error) {
	acked = make(map[string]float64)
	opts := serverSweepOptions()
	opts.FS = fsys
	store, err := streamstore.OpenWith(dir, opts)
	if err != nil {
		return 0, acked, err
	}
	defer func() { _ = store.Close() }()
	cfg := serverSweepConfig()
	cfg.ClaimWAL = true
	srv, err := NewStreamServer(StreamServerConfig{
		Name:        "crash-sweep",
		Engine:      cfg,
		Persistence: store,
	})
	if err != nil {
		return 0, acked, err
	}
	defer func() { _ = srv.Close() }()
	handler := srv.Handler()
	eps := srv.Engine().EpsilonPerWindow()

	for i, step := range serverSweepSteps() {
		var req *http.Request
		switch step.kind {
		case "ingest":
			body, err := json.Marshal(Submission{ClientID: step.user, Claims: step.claims})
			if err != nil {
				return i, acked, err
			}
			req = httptest.NewRequest(http.MethodPost, PathStreamClaims, bytes.NewReader(body))
		case "close":
			req = httptest.NewRequest(http.MethodPost, PathStreamWindow, nil)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return i, acked, fmt.Errorf("step %d (%s): status %d: %s", i, step.kind, rec.Code, rec.Body.String())
		}
		if step.kind == "ingest" {
			acked[step.user] += eps
		}
		completed = i + 1
	}
	// Graceful shutdown: Close writes the final snapshot under windowMu.
	if err := srv.Close(); err != nil {
		return completed, acked, err
	}
	return completed, acked, nil
}

// serverOracleProbe replays the first n logical steps on a fresh
// in-memory server, then probes it (one new user claiming every object,
// one close).
func serverOracleProbe(t *testing.T, n int) *stream.WindowResult {
	t.Helper()
	e, err := stream.New(serverSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for _, step := range serverSweepSteps()[:n] {
		switch step.kind {
		case "ingest":
			claims := make([]stream.Claim, len(step.claims))
			for i, c := range step.claims {
				claims[i] = stream.Claim{Object: c.Object, Value: c.Value}
			}
			if _, _, err := e.Ingest(step.user, claims); err != nil {
				t.Fatalf("oracle(%d) ingest: %v", n, err)
			}
		case "close":
			if _, err := e.CloseWindow(); err != nil {
				t.Fatalf("oracle(%d) close: %v", n, err)
			}
		}
	}
	return serverProbeEngine(t, e)
}

func serverProbeEngine(t *testing.T, e *stream.Engine) *stream.WindowResult {
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

func serverResultsEquivalent(a, b *stream.WindowResult, tol float64) bool {
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

func serverDumpOpLog(t *testing.T, fy *storefs.Faulty, label string) {
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
	path := filepath.Join(dir, fmt.Sprintf("server-crash-%s.oplog", label))
	if err := os.WriteFile(path, []byte(fy.OpLogString()), 0o644); err != nil {
		t.Logf("write op log: %v", err)
		return
	}
	t.Logf("op log written to %s", path)
}

// serverSweepDisk builds the disk of one crash case: the filesystem the
// server runs on, and a func returning the one the restarted process
// finds after the crash — the real filesystem (a crash-stop), or a
// storefs.Model that also drops, keeps or tears what was not synced.
type serverSweepDisk func() (run storefs.FS, afterCrash func() storefs.FS)

func serverOSDisk() (storefs.FS, func() storefs.FS) {
	return storefs.OS{}, func() storefs.FS { return storefs.OS{} }
}

func serverModelDisk(mode storefs.CrashMode) serverSweepDisk {
	return func() (storefs.FS, func() storefs.FS) {
		m := storefs.NewModel()
		return m, func() storefs.FS { m.Crash(mode); return m }
	}
}

// TestStreamServerCrashPointSweep enumerates every filesystem operation
// the durable server's workload performs, crashes at each in turn (and
// again with writes torn in half), and asserts that a fresh
// NewStreamServer on the same directory (1) recovers, (2) lost no
// acknowledged charge, and (3) estimates equivalently — within 1e-9 —
// to an uninterrupted server that processed either the completed
// prefix, or that prefix plus the step in flight.
func TestStreamServerCrashPointSweep(t *testing.T) {
	runServerCrashPointSweep(t, serverOSDisk)
}

// TestStreamServerCrashPointSweepModel is the same sweep on the lying
// disk, once per storefs crash mode.
func TestStreamServerCrashPointSweepModel(t *testing.T) {
	for _, mode := range storefs.CrashModes {
		t.Run(mode.String(), func(t *testing.T) { runServerCrashPointSweep(t, serverModelDisk(mode)) })
	}
}

func runServerCrashPointSweep(t *testing.T, disk serverSweepDisk) {
	const tol = 1e-9
	steps := serverSweepSteps()

	run, _ := disk()
	pilot := storefs.NewFaulty(run)
	if _, _, err := runServerSweepCycle(pilot, t.TempDir()); err != nil {
		t.Fatalf("pilot cycle: %v", err)
	}
	pilotOps := pilot.Ops()
	if len(pilotOps) < 40 {
		t.Fatalf("pilot enumerated only %d ops — the cycle is not exercising the store", len(pilotOps))
	}

	oracles := make([]*stream.WindowResult, len(steps)+1)
	for n := 0; n <= len(steps); n++ {
		oracles[n] = serverOracleProbe(t, n)
	}

	for _, tc := range storefs.CrashPoints(pilotOps) {
		tc := tc
		t.Run(tc.Label, func(t *testing.T) {
			label := strings.ReplaceAll(t.Name(), "/", "-")
			dir := t.TempDir()
			run, afterCrash := disk()
			fy := storefs.NewFaulty(run)
			fy.CrashAt(tc.Op, tc.Tear)
			completed, acked, err := runServerSweepCycle(fy, dir)
			if err == nil {
				// The crash landed in Close's tail, after the last workload
				// step already completed.
				if !fy.Crashed() {
					t.Fatalf("crash at op %d never fired", tc.Op)
				}
				completed = len(steps)
			}

			// Recover exactly as a restarted process would: open the store,
			// then NewStreamServer (which runs snapshot + journal-replay
			// recovery itself).
			opts := serverSweepOptions()
			opts.FS = afterCrash()
			store, err := streamstore.OpenWith(dir, opts)
			if err != nil {
				serverDumpOpLog(t, fy, label)
				t.Fatalf("recovery open: %v", err)
			}
			defer func() { _ = store.Close() }()
			cfg := serverSweepConfig()
			cfg.ClaimWAL = true
			srv, err := NewStreamServer(StreamServerConfig{
				Name:        "crash-sweep",
				Engine:      cfg,
				Persistence: store,
			})
			if err != nil {
				serverDumpOpLog(t, fy, label)
				t.Fatalf("recover after crash at op %d: %v", tc.Op, err)
			}
			defer func() { _ = srv.Close() }()

			// Invariant 2: every acknowledged charge survived.
			st, err := srv.Engine().ExportState()
			if err != nil {
				t.Fatal(err)
			}
			recovered := make(map[string]float64, len(st.Users))
			for _, u := range st.Users {
				recovered[u.ID] = u.CumulativeEpsilon
			}
			for user, want := range acked {
				if recovered[user] < want-tol {
					serverDumpOpLog(t, fy, label)
					t.Errorf("user %s recovered epsilon %v < acknowledged %v: acknowledged charge lost",
						user, recovered[user], want)
				}
			}

			// Invariant 3: probe equivalence to an uninterrupted server.
			got := serverProbeEngine(t, srv.Engine())
			withL, withL1 := oracles[completed], oracles[completed]
			if completed < len(steps) {
				withL1 = oracles[completed+1]
			}
			if !serverResultsEquivalent(got, withL, tol) && !serverResultsEquivalent(got, withL1, tol) {
				serverDumpOpLog(t, fy, label)
				t.Errorf("crash at op %d (step %d): recovered probe matches neither oracle(%d) nor oracle(%d)\n got: window %d claims %d truths %v",
					tc.Op, completed, completed, completed+1, got.Window, got.TotalClaims, got.Truths)
			}
		})
	}
}
