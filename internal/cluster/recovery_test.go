package cluster

import (
	"context"
	"net/http"
	"testing"
	"time"

	"pptd/internal/crowd"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// TestWorkerCrashMidCloseServesRetriedClose: a worker that crashes
// after closing a window for the coordinator — but before the commit —
// must come back (here: recovered from its shipped archive, so the
// shipper's always-re-ship of the cluster-close record is on the hook
// too) still able to serve the retried close from its durable export
// cache. The round then converges to the single-node answer.
func TestWorkerCrashMidCloseServesRetriedClose(t *testing.T) {
	cfg := baseConfig(stream.EstimatorCRH)
	workerCfg := cfg
	workerCfg.ClaimWAL = true
	workers := []*testWorker{startWorker(t, workerCfg, "w0"), startWorker(t, workerCfg, "w1")}
	defer func() {
		workers[1].closeAll(t)
		// workers[0] is deliberately crashed below; its replacement is
		// cleaned up separately.
	}()

	ref, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	defer func() {
		_ = ref.Close()
	}()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	coord, err := NewCoordinator(Config{
		Name: "mid-close", Engine: cfg, Workers: []string{workers[0].url, workers[1].url},
		HTTPClient: &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer func() {
		_ = coord.Close()
	}()

	ctx := context.Background()
	for u := 0; u < 16; u++ {
		id := userID(u)
		claims := claimsFor(u, 1, cfg.NumObjects)
		if _, _, err := ref.Ingest(id, claims); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
		if _, err := coord.Submit(ctx, toSubmission(id, claims)); err != nil {
			t.Fatalf("cluster submit: %v", err)
		}
	}

	// Simulate the coordinator's close round reaching the victim and then
	// dying before any commit: close window 1 on the victim directly.
	victim := workers[0]
	victimClient, err := crowd.NewClient(victim.url)
	if err != nil {
		t.Fatalf("victim client: %v", err)
	}
	if _, err := victimClient.ClusterClose(ctx, crowd.ClusterCloseRequest{Window: 1, Force: true}); err != nil {
		t.Fatalf("direct close on victim: %v", err)
	}

	// Crash the victim: ship its durable state (snapshot, segments, AND
	// the cluster-close record), drop its listener, leak its engine, and
	// recover a fresh worker from the shipped archive on the same address.
	if err := victim.worker.shipper.SyncOnce(); err != nil {
		t.Fatalf("ship victim state: %v", err)
	}
	victim.stopListening(t)
	store, err := streamstore.Open(victim.shipDir)
	if err != nil {
		t.Fatalf("open shipped archive: %v", err)
	}
	recovered := newTestShard(t, "recovered", workerCfg, store, nil)
	t.Cleanup(func() {
		_ = recovered.Close()
		_ = store.Close()
	})
	victim.worker = recovered
	victim.relisten(t)
	tr.CloseIdleConnections()

	// The recovered worker restored its pending, uncommitted export.
	status, err := victimClient.ClusterStatus(ctx)
	if err != nil {
		t.Fatalf("status after recovery: %v", err)
	}
	if status.Window != 1 || status.PendingWindow != 1 || status.CommittedWindow != 0 {
		t.Fatalf("recovered status = %+v, want window 1, pending 1, committed 0", status)
	}

	// The coordinator's (retried) close must now converge: the recovered
	// victim answers from its restored export cache, the other worker
	// closes fresh, and the merged result matches the single node.
	refRes, err := ref.CloseWindow()
	if err != nil {
		t.Fatalf("reference close: %v", err)
	}
	got, err := coord.CloseWindow()
	if err != nil {
		t.Fatalf("cluster close after victim recovery: %v", err)
	}
	requireEquivalent(t, 1, crowd.WindowInfo(refRes), got)
}

// TestCoordinatorRestartRedrivesUncommittedClose: when a coordinator
// dies after every worker closed a window but before the merged carries
// were committed, a freshly booted coordinator must detect the pending
// round (workers report a pending export newer than their last commit)
// and re-drive the merge/commit before serving — publishing the result
// and keeping later windows equivalent to a single node.
func TestCoordinatorRestartRedrivesUncommittedClose(t *testing.T) {
	cfg := baseConfig(stream.EstimatorCRH)
	workerCfg := cfg
	workerCfg.ClaimWAL = true
	workers := []*testWorker{startWorker(t, workerCfg, "w0"), startWorker(t, workerCfg, "w1")}
	defer func() {
		for _, w := range workers {
			w.closeAll(t)
		}
	}()
	urls := []string{workers[0].url, workers[1].url}

	ref, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	defer func() {
		_ = ref.Close()
	}()

	// Window 1 claims go straight to the owning workers (no coordinator
	// is alive yet — we are reconstructing the state one leaves behind).
	ring, err := NewRing(urls)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	clients := map[string]*crowd.Client{}
	for _, u := range urls {
		cl, err := crowd.NewClient(u)
		if err != nil {
			t.Fatalf("client %s: %v", u, err)
		}
		clients[u] = cl
	}
	ctx := context.Background()
	for u := 0; u < 16; u++ {
		id := userID(u)
		claims := claimsFor(u, 1, cfg.NumObjects)
		if _, _, err := ref.Ingest(id, claims); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
		if _, err := clients[ring.Owner(id)].StreamSubmit(ctx, toSubmission(id, claims)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}

	// The doomed coordinator's close round: every worker closes window 1
	// and durably caches its export — then the coordinator dies before
	// merging or committing anything.
	for _, u := range urls {
		if _, err := clients[u].ClusterClose(ctx, crowd.ClusterCloseRequest{Window: 1, Force: true}); err != nil {
			t.Fatalf("close on %s: %v", u, err)
		}
	}

	// A new coordinator boots against the half-closed cluster: it must
	// re-drive window 1's merge/commit and publish its result.
	coord, err := NewCoordinator(Config{Name: "redrive", Engine: cfg, Workers: urls})
	if err != nil {
		t.Fatalf("coordinator over pending round: %v", err)
	}
	defer func() {
		_ = coord.Close()
	}()
	if coord.Window() != 1 {
		t.Fatalf("coordinator booted at window %d, want 1", coord.Window())
	}
	refRes, err := ref.CloseWindow()
	if err != nil {
		t.Fatalf("reference close: %v", err)
	}
	// The re-driven round's close reply went to nobody, so its per-user
	// weights are read the way a late reader would: ?weights=1.
	got, err := coord.TruthsAt(0, true)
	if err != nil {
		t.Fatalf("truths after re-drive: %v", err)
	}
	requireEquivalent(t, 1, crowd.WindowInfo(refRes), got)
	for _, u := range urls {
		status, err := clients[u].ClusterStatus(ctx)
		if err != nil {
			t.Fatalf("status %s: %v", u, err)
		}
		if status.CommittedWindow != 1 {
			t.Fatalf("worker %s committed window = %d after re-drive, want 1", u, status.CommittedWindow)
		}
	}

	// Window 2 through the new coordinator stays equivalent — the proof
	// that the re-driven carries (not stale pre-close ones) were applied.
	for u := 0; u < 16; u++ {
		if !submits(u, 2) {
			continue
		}
		id := userID(u)
		claims := claimsFor(u, 2, cfg.NumObjects)
		if _, _, err := ref.Ingest(id, claims); err != nil {
			t.Fatalf("reference ingest window 2: %v", err)
		}
		if _, err := coord.Submit(ctx, toSubmission(id, claims)); err != nil {
			t.Fatalf("cluster submit window 2: %v", err)
		}
	}
	refRes2, err := ref.CloseWindow()
	if err != nil {
		t.Fatalf("reference close window 2: %v", err)
	}
	got2, err := coord.CloseWindow()
	if err != nil {
		t.Fatalf("cluster close window 2: %v", err)
	}
	requireEquivalent(t, 2, crowd.WindowInfo(refRes2), got2)
}

// recordingSink wraps a DirSink and records every Put by name.
type recordingSink struct {
	*DirSink
	puts []string
}

func (r *recordingSink) Put(name string, data []byte) error {
	r.puts = append(r.puts, name)
	return r.DirSink.Put(name, data)
}

// TestShipperSkipsUnchangedMutableFiles: a shipping pass re-ships only
// what moved — an unchanged journal does not re-ship, while the latest
// result, the snapshot and the cluster-close record (atomically
// rewritten, possibly at an unchanged size) re-ship on every pass.
func TestShipperSkipsUnchangedMutableFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := streamstore.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer func() {
		_ = store.Close()
	}()
	cfg := baseConfig(stream.EstimatorCRH)
	cfg.Ledger = store
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer func() {
		_ = eng.Close()
	}()
	if _, _, err := eng.Ingest("alice", []stream.Claim{{Object: 0, Value: 1}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	res, err := eng.CloseWindow()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := store.SaveResult(res); err != nil {
		t.Fatalf("save result: %v", err)
	}
	if err := store.SnapshotEngine(eng); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	export, err := stream.AppendEngineState(nil, &stream.EngineState{NumObjects: cfg.NumObjects})
	if err != nil {
		t.Fatalf("encode export: %v", err)
	}
	if err := store.SaveClusterClose(&streamstore.ClusterCloseState{Window: 1, State: export}); err != nil {
		t.Fatalf("save cluster close: %v", err)
	}

	inner, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatalf("dir sink: %v", err)
	}
	sink := &recordingSink{DirSink: inner}
	shipper, err := NewShipper(store, sink, time.Hour, nil)
	if err != nil {
		t.Fatalf("shipper: %v", err)
	}
	if err := shipper.SyncOnce(); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if len(sink.puts) == 0 {
		t.Fatal("first pass shipped nothing")
	}
	first := append([]string(nil), sink.puts...)

	// Second pass with nothing changed at the source.
	sink.puts = nil
	if err := shipper.SyncOnce(); err != nil {
		t.Fatalf("second pass: %v", err)
	}
	want := map[string]bool{
		streamstore.ResultFileName:       true,
		streamstore.SnapshotFileName:     true,
		streamstore.ClusterCloseFileName: true,
	}
	got := map[string]bool{}
	for _, name := range sink.puts {
		if !want[name] {
			t.Fatalf("unchanged file %q re-shipped on the second pass (first pass shipped %v)", name, first)
		}
		got[name] = true
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("%q did not re-ship on the second pass (shipped %v)", name, sink.puts)
		}
	}
}
