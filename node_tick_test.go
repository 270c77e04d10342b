package pptd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pptd"
	"pptd/internal/crowd"
	"pptd/internal/streamstore"
)

// tickInterval is the WithWindowInterval the ticker tests run at.
const tickInterval = 10 * time.Millisecond

// waitFor polls cond until it holds, failing the test with what after
// five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s within the deadline", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamAutoWindowClose checks the ticker-driven window close on a
// single node: with WithWindowInterval set, truths appear without any
// POST /v1/stream/window.
func TestStreamAutoWindowClose(t *testing.T) {
	n, err := pptd.NewNode(
		pptd.WithName("stream-ticker"),
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, NumShards: 1}),
		pptd.WithWindowInterval(tickInterval),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	client, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
		ClientID: "c", Claims: []pptd.CampaignClaim{{Object: 0, Value: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "no window auto-closed", func() bool {
		info, err := client.StreamTruths(ctx)
		if errors.Is(err, pptd.ErrNotReady) {
			return false
		}
		if err != nil {
			t.Fatal(err)
		}
		if info.Window < 1 || info.Truths[0] != 4 {
			t.Fatalf("auto-closed snapshot = %+v", info)
		}
		return true
	})
	if err := n.TickError(); err != nil {
		t.Errorf("TickError = %v after good and empty ticks, want nil", err)
	}
}

// dirFiles returns every file under dir by relative path, with its
// bytes, so two reads compare what is on disk.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// closeWindow closes the open window through the node's POST
// /v1/stream/window route and returns the closed window's number.
func closeWindow(t *testing.T, n *pptd.Node) int {
	t.Helper()
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream/window", nil))
	var info pptd.StreamWindowInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("POST /v1/stream/window = %d %s", rec.Code, rec.Body)
	}
	return info.Window
}

// TestIdleTicksCloseWindowsAtDecayOne pins the idle-tick rule: at Decay
// 1 nothing decays, so a tick that finds no claim accepted since the
// last close is skipped. After the tick that closes the claim's window,
// idle ticks leave the window number, every file of a durable node and
// the result ring as they were, and TickError nil; a manual POST
// /v1/stream/window still closes.
func TestIdleTicksCloseWindowsAtDecayOne(t *testing.T) {
	dir := t.TempDir()
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, NumShards: 1, Decay: 1}),
		pptd.WithPersistence(dir),
		pptd.WithWindowInterval(tickInterval),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	if _, err := n.Stream().Submit(pptd.CampaignSubmission{
		ClientID: "c", Claims: []pptd.CampaignClaim{{Object: 0, Value: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	// A close writes its result, then its snapshot.
	waitFor(t, "the claim's window was not closed and snapshotted", func() bool { return n.Store().Stats(false).Snapshots >= 1 })
	files, stats := dirFiles(t, dir), n.Store().Stats(false)
	time.Sleep(20 * tickInterval)
	if w := n.Stream().Campaign().Window; w != 1 {
		t.Fatalf("window %d after idle ticks, want 1", w)
	}
	if after := n.Store().Stats(false); after.Snapshots != stats.Snapshots || after.ResultsSaved != stats.ResultsSaved {
		t.Errorf("idle ticks wrote %d snapshots and %d results", after.Snapshots-stats.Snapshots, after.ResultsSaved-stats.ResultsSaved)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, files) {
		t.Errorf("idle ticks changed the state directory: %d files before, %d after", len(files), len(after))
	}
	info, err := n.Stream().Truths()
	if err != nil || info.Window != 1 || info.Truths[0] != 4 || info.ActiveUsers != 1 {
		t.Errorf("latest window after idle ticks = %+v, %v; want window 1, truth 4 from 1 user", info, err)
	}
	if _, err := n.Stream().TruthsAt(2, false); !errors.Is(err, pptd.ErrUnknownWindow) {
		t.Errorf("TruthsAt(2) = %v after idle ticks, want ErrUnknownWindow", err)
	}
	if err := n.TickError(); err != nil {
		t.Errorf("TickError = %v after idle ticks, want nil", err)
	}
	if w := closeWindow(t, n); w != 2 {
		t.Errorf("manual close at Decay 1 closed window %d, want 2", w)
	}
}

// TestTicksBelowDecayOneKeepClosing checks the other side of the rule:
// below Decay 1 the window is the decay clock, so every tick closes
// while the statistic is live, claims or not.
func TestTicksBelowDecayOneKeepClosing(t *testing.T) {
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, NumShards: 1, Decay: 0.5}),
		pptd.WithWindowInterval(tickInterval),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	if _, err := n.Stream().Submit(pptd.CampaignSubmission{
		ClientID: "c", Claims: []pptd.CampaignClaim{{Object: 0, Value: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ticks at Decay 0.5 did not close three windows", func() bool { return n.Stream().Campaign().Window >= 3 })
	if err := n.TickError(); err != nil {
		t.Errorf("TickError = %v, want nil", err)
	}
}

// TestCoordinatorSkipsIdleTicks applies the idle-tick rule to a
// coordinator over one durable worker: after the tick that closes the
// claim's window, idle ticks close nothing on the coordinator or the
// worker and write nothing to the worker's state directory, and a
// manual close still runs the cluster-wide round.
func TestCoordinatorSkipsIdleTicks(t *testing.T) {
	cfg := pptd.StreamConfig{NumObjects: 1, NumShards: 1}
	dir := t.TempDir()
	worker, err := pptd.NewNode(pptd.WithStreamConfig(cfg), pptd.WithClusterWorker(), pptd.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = worker.Close() })
	ws := httptest.NewServer(worker.Handler())
	t.Cleanup(ws.Close)
	coord, err := pptd.NewNode(pptd.WithStreamConfig(cfg), pptd.WithClusterCoordinator(ws.URL), pptd.WithWindowInterval(tickInterval))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	if _, err := coord.Coordinator().Submit(context.Background(), pptd.CampaignSubmission{
		ClientID: "c", Claims: []pptd.CampaignClaim{{Object: 0, Value: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the claim's window was not closed", func() bool { return coord.Coordinator().Window() == 1 })
	files := dirFiles(t, dir)
	time.Sleep(20 * tickInterval)
	if cw, ww := coord.Coordinator().Window(), worker.Stream().Campaign().Window; cw != 1 || ww != 1 {
		t.Fatalf("after idle ticks: coordinator at window %d, worker at %d; want 1 and 1", cw, ww)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, files) {
		t.Errorf("idle ticks changed the worker's state directory: %d files before, %d after", len(files), len(after))
	}
	if err := coord.TickError(); err != nil {
		t.Errorf("TickError = %v after idle ticks, want nil", err)
	}
	if w := closeWindow(t, coord); w != 2 {
		t.Errorf("manual close on the coordinator closed window %d, want 2", w)
	}
}

// TestTickErrorSurfacesSnapshotFailure checks that a ticker-driven
// window close whose persistence snapshot fails does not vanish: the
// fault is retained for Node.TickError and returned from Node.Close.
func TestTickErrorSurfacesSnapshotFailure(t *testing.T) {
	n, err := pptd.NewNode(
		pptd.WithName("stream-tick-err"),
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, NumShards: 1}),
		pptd.WithPersistence(t.TempDir()),
		pptd.WithWindowInterval(tickInterval),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	sub := pptd.CampaignSubmission{ClientID: "c", Claims: []pptd.CampaignClaim{{Object: 0, Value: 1}}}
	if _, err := n.Stream().Submit(sub); err != nil {
		t.Fatal(err)
	}
	// The store dies under the node (stand-in for a full disk): every
	// subsequent auto close must fail its snapshot. The resident user's
	// second claim, which needs no store, makes sure a tick tries one
	// even if the first claim's window closed before the store died.
	if err := n.Store().Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Stream().Submit(sub); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshot failure never surfaced via TickError", func() bool { return n.TickError() != nil })
	if !errors.Is(n.TickError(), streamstore.ErrClosed) {
		t.Errorf("TickError = %v, want wrapped streamstore.ErrClosed", n.TickError())
	}
	// The ticker stops first, so the error it retains after Close is the
	// one Close returned.
	err = n.Close()
	if tickErr := n.TickError(); tickErr == nil || !errors.Is(err, tickErr) {
		t.Errorf("Close = %v, want it to carry the retained tick error %v", err, tickErr)
	}
}

// TestIdleTickRetriesFailedClose checks that a fault stops ticks from
// being skipped as idle. At Decay 1, a close that published its result
// but could not write its snapshot counts its claim as closed, so no
// claim is new; yet while TickError holds the fault every tick closes
// again. Once the disk recovers, a tick writes the result and the
// snapshot and clears TickError, and the ticks after it are idle.
func TestIdleTickRetriesFailedClose(t *testing.T) {
	dir := t.TempDir()
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, NumShards: 1, Decay: 1}),
		pptd.WithPersistence(dir),
		pptd.WithWindowInterval(tickInterval),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	// A directory where the snapshot's temp file goes fails every
	// snapshot write (a stand-in for a full disk) until it is removed.
	blocker := filepath.Join(dir, "snapshot.json.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	before := n.Store().Stats(false)
	if _, err := n.Stream().Submit(pptd.CampaignSubmission{
		ClientID: "c", Claims: []pptd.CampaignClaim{{Object: 0, Value: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the failed snapshot never surfaced via TickError", func() bool { return n.TickError() != nil })
	if after := n.Store().Stats(false); after.Snapshots != before.Snapshots {
		t.Fatalf("%d snapshots written through the blocked path", after.Snapshots-before.Snapshots)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "no tick cleared TickError after the disk recovered", func() bool { return n.TickError() == nil })
	if after := n.Store().Stats(false); after.Snapshots <= before.Snapshots || after.ResultsSaved <= before.ResultsSaved {
		t.Fatalf("the recovering tick wrote %d snapshots and %d results, want both", after.Snapshots-before.Snapshots, after.ResultsSaved-before.ResultsSaved)
	}
	window, files := n.Stream().Campaign().Window, dirFiles(t, dir)
	time.Sleep(20 * tickInterval)
	if w := n.Stream().Campaign().Window; w != window {
		t.Errorf("idle ticks after the recovery moved the window from %d to %d", window, w)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, files) {
		t.Errorf("idle ticks after the recovery changed the state directory")
	}
}

// TestCoordinatorAutoWindowClose runs the window ticker on a cluster
// coordinator over two in-process workers. A worker whose server is
// stopped fails the rounds, and the error stays while the rounds that
// follow find an empty window; merged truths appear without any POST
// /v1/stream/window, and a good close clears the error; a worker stopped
// again surfaces through Node.TickError and Node.Close.
func TestCoordinatorAutoWindowClose(t *testing.T) {
	cfg := pptd.StreamConfig{NumObjects: 2, NumShards: 1}
	workers := make([]*pptd.Node, 2)
	servers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range servers {
		w, err := pptd.NewNode(pptd.WithName("shard"), pptd.WithStreamConfig(cfg), pptd.WithClusterWorker())
		if err != nil {
			t.Fatalf("worker node %d: %v", i, err)
		}
		t.Cleanup(func() { _ = w.Close() })
		workers[i] = w
		servers[i] = httptest.NewServer(w.Handler())
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	coord, err := pptd.NewNode(
		pptd.WithName("front"),
		pptd.WithStreamConfig(cfg),
		pptd.WithClusterCoordinator(urls...),
		pptd.WithWindowInterval(tickInterval),
	)
	if err != nil {
		t.Fatalf("coordinator node: %v", err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	client, err := pptd.NewClient(front.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// stopWorker stops the second worker's server and waits for a tick
	// to fail on it.
	stopWorker := func() {
		servers[1].Close()
		waitFor(t, "unreachable worker never surfaced via TickError", func() bool {
			return errors.Is(coord.TickError(), crowd.ErrWorkerUnavailable)
		})
	}
	addr := servers[1].Listener.Addr().String()
	stopWorker()
	// Served again on its address, the worker answers, but no claim has
	// arrived: every round finds an empty window and keeps the error.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("serve the worker again on %s: %v", addr, err)
	}
	servers[1] = &httptest.Server{Listener: ln, Config: &http.Server{Handler: workers[1].Handler()}}
	servers[1].Start()
	t.Cleanup(servers[1].Close)
	time.Sleep(10 * tickInterval)
	if err := coord.TickError(); !errors.Is(err, crowd.ErrWorkerUnavailable) {
		t.Fatalf("TickError = %v after empty rounds, want the retained ErrWorkerUnavailable", err)
	}

	// One user per worker, each the only one to claim its object, so
	// both objects are covered only once the close merges both workers.
	ring := coord.Coordinator().Ring()
	owned := map[string]string{} // worker URL -> user it owns
	for i := 0; len(owned) < len(urls); i++ {
		id := fmt.Sprintf("u%d", i)
		if w := ring.Owner(id); owned[w] == "" {
			owned[w] = id
		}
	}
	want := []float64{4, 7}
	for o, u := range urls {
		if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
			ClientID: owned[u], Claims: []pptd.CampaignClaim{{Object: o, Value: want[o]}},
		}); err != nil {
			t.Fatalf("submit for worker %d: %v", o, err)
		}
	}
	waitFor(t, "no merged window auto-closed", func() bool {
		info, err := client.StreamTruths(ctx)
		if errors.Is(err, pptd.ErrNotReady) {
			return false
		}
		if err != nil {
			t.Fatal(err)
		}
		if !info.Covered[0] || !info.Covered[1] {
			return false // a tick closed a window between the submissions
		}
		for o, v := range want {
			if math.Abs(info.Truths[o]-v) > 1e-9 {
				t.Fatalf("object %d: merged truth %v, want %v", o, info.Truths[o], v)
			}
		}
		return true
	})
	if err := coord.TickError(); err != nil {
		t.Fatalf("TickError = %v after a merged close, want nil", err)
	}

	// Stopped again, the worker fails the tick that a new claim on the
	// other worker brings.
	servers[1].Close()
	if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
		ClientID: owned[urls[0]], Claims: []pptd.CampaignClaim{{Object: 0, Value: want[0]}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unreachable worker never surfaced via TickError", func() bool {
		return errors.Is(coord.TickError(), crowd.ErrWorkerUnavailable)
	})
	if err := coord.Close(); !errors.Is(err, crowd.ErrWorkerUnavailable) {
		t.Errorf("Close = %v, want the retained ErrWorkerUnavailable", err)
	}
}
