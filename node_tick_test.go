package pptd_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
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

// TestIdleTicksCloseWindowsAtDecayOne pins what ErrEmptyWindow means:
// no live statistic, not "no claims since the last tick". After one
// claim at Decay 1 the statistic never decays, so every idle tick
// closes a window, and a durable node writes a result and a snapshot
// each time.
func TestIdleTicksCloseWindowsAtDecayOne(t *testing.T) {
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, NumShards: 1, Decay: 1}),
		pptd.WithPersistence(t.TempDir()),
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
	waitFor(t, "idle ticks did not snapshot three windows", func() bool { return n.Store().Stats(false).Snapshots >= 3 })
	if w, saved := n.Stream().Campaign().Window, n.Store().Stats(false).ResultsSaved; w < 3 || saved < 3 {
		t.Errorf("after three idle-tick snapshots: window %d, %d results saved; want at least 3 each", w, saved)
	}
	info, err := n.Stream().Truths()
	if err != nil || info.Truths[0] != 4 || info.ActiveUsers != 1 {
		t.Errorf("latest idle window = %+v, %v; want the one claim's truth 4 from 1 user", info, err)
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
	if _, err := n.Stream().Submit(pptd.CampaignSubmission{
		ClientID: "c", Claims: []pptd.CampaignClaim{{Object: 0, Value: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	// The store dies under the node (stand-in for a full disk): every
	// subsequent auto close must fail its snapshot.
	if err := n.Store().Close(); err != nil {
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

	stopWorker()
	if err := coord.Close(); !errors.Is(err, crowd.ErrWorkerUnavailable) {
		t.Errorf("Close = %v, want the retained ErrWorkerUnavailable", err)
	}
}
