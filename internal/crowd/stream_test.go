package crowd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pptd/internal/randx"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

func newStreamFixture(t *testing.T, cfg StreamServerConfig) (*StreamServer, *Client) {
	t.Helper()
	srv, err := NewStreamServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, client
}

// TestStreamEndToEnd drives the full streaming flow over a real HTTP
// boundary: concurrent devices perturb locally and submit over several
// windows, the driver closes windows, and the live snapshot tracks the
// ground truth.
func TestStreamEndToEnd(t *testing.T) {
	const (
		numObjects = 8
		numUsers   = 30
		numWindows = 3
		lambda1    = 1.5
		lambda2    = 2.0
	)
	_, client := newStreamFixture(t, StreamServerConfig{
		Name: "stream-e2e",
		Engine: stream.Config{
			NumObjects: numObjects,
			NumShards:  3,
			Lambda1:    lambda1,
			Lambda2:    lambda2,
			Delta:      0.3,
		},
	})
	ctx := context.Background()

	info, err := client.StreamCampaign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumObjects != numObjects || info.Lambda2 != lambda2 || info.Shards != 3 {
		t.Fatalf("campaign info = %+v", info)
	}
	if info.EpsilonPerWindow <= 0 {
		t.Fatalf("EpsilonPerWindow = %v, want > 0", info.EpsilonPerWindow)
	}

	// Snapshot is 404 (ErrNotReady) until the first window closes: "no
	// estimate yet" is a missing resource, not a conflict.
	if _, err := client.StreamTruths(ctx); err == nil {
		t.Fatal("StreamTruths before first window succeeded")
	} else {
		var httpErr *HTTPError
		if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusNotFound {
			t.Fatalf("StreamTruths before first window: %v", err)
		}
		if !errors.Is(err, ErrNotReady) {
			t.Fatalf("StreamTruths before first window: %v does not wrap ErrNotReady", err)
		}
	}

	rng := randx.New(5)
	groundTruth := make([]float64, numObjects)
	for n := range groundTruth {
		groundTruth[n] = 10 * rng.Float64()
	}
	users := make([]*User, numUsers)
	for i := range users {
		userRng := rng.Split()
		sigma := math.Sqrt(userRng.Exp() / lambda1)
		readings := make([]Claim, numObjects)
		for n, tv := range groundTruth {
			readings[n] = Claim{Object: n, Value: tv + sigma*userRng.Norm()}
		}
		u, err := NewUser(fmt.Sprintf("device-%02d", i), readings, userRng)
		if err != nil {
			t.Fatal(err)
		}
		users[i] = u
	}

	for w := 1; w <= numWindows; w++ {
		var wg sync.WaitGroup
		errs := make([]error, numUsers)
		for i, u := range users {
			wg.Add(1)
			go func(i int, u *User) {
				defer wg.Done()
				_, errs[i] = u.ParticipateStream(ctx, client)
			}(i, u)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("window %d device %d: %v", w, i, err)
			}
		}
		res, err := client.StreamCloseWindow(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Window != w {
			t.Fatalf("window = %d, want %d", res.Window, w)
		}
		if res.ActiveUsers != numUsers {
			t.Errorf("window %d: ActiveUsers = %d, want %d", w, res.ActiveUsers, numUsers)
		}
		if res.Privacy == nil {
			t.Fatalf("window %d: no privacy report", w)
		}
		wantCum := float64(w) * info.EpsilonPerWindow
		if got := res.Privacy.MaxCumulative; math.Abs(got-wantCum) > 1e-9 {
			t.Errorf("window %d: MaxCumulative = %v, want %v", w, got, wantCum)
		}
		wantDelta := float64(w) * info.Delta
		if got := res.Privacy.CumulativeDelta; math.Abs(got-wantDelta) > 1e-12 {
			t.Errorf("window %d: CumulativeDelta = %v, want %v", w, got, wantDelta)
		}

		snap, err := client.StreamTruths(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Window != w {
			t.Errorf("snapshot window = %d, want %d", snap.Window, w)
		}
		var mae float64
		for n, tv := range groundTruth {
			if !snap.Covered[n] {
				t.Fatalf("object %d uncovered", n)
			}
			mae += math.Abs(snap.Truths[n] - tv)
		}
		mae /= numObjects
		if mae > 1.5 {
			t.Errorf("window %d: MAE %v vs ground truth too large", w, mae)
		}
	}
}

// TestStreamBudgetOverHTTP checks that an exhausted client is refused
// with 429 while fresh clients keep streaming.
func TestStreamBudgetOverHTTP(t *testing.T) {
	srv, client := newStreamFixture(t, StreamServerConfig{
		Name: "stream-budget",
		Engine: stream.Config{
			NumObjects: 2,
			NumShards:  1,
			Lambda1:    1,
			Lambda2:    2,
			Delta:      0.3,
		},
	})
	// Budget for exactly one window.
	eps := srv.Engine().EpsilonPerWindow()
	srv2, client2 := newStreamFixture(t, StreamServerConfig{
		Name: "stream-budget-capped",
		Engine: stream.Config{
			NumObjects:    2,
			NumShards:     1,
			Lambda1:       1,
			Lambda2:       2,
			Delta:         0.3,
			EpsilonBudget: eps,
		},
	})
	_ = srv2
	ctx := context.Background()
	sub := Submission{ClientID: "c", Claims: []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}}

	// Uncapped server: two windows fine.
	for w := 0; w < 2; w++ {
		if _, err := client.StreamSubmit(ctx, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := client.StreamCloseWindow(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Capped server: first window fine, second refused with 429.
	if _, err := client2.StreamSubmit(ctx, sub); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.StreamCloseWindow(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := client2.StreamSubmit(ctx, sub)
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit = %v, want 429", err)
	}
}

// TestStreamDuplicateWindowOverHTTP checks the release contract on the
// wire: with accounting enabled a second submission into the same open
// window is refused with 409, and the user is admitted again once the
// window advances.
func TestStreamDuplicateWindowOverHTTP(t *testing.T) {
	_, client := newStreamFixture(t, StreamServerConfig{
		Name: "stream-dup",
		Engine: stream.Config{
			NumObjects: 2,
			NumShards:  1,
			Lambda1:    1,
			Lambda2:    2,
			Delta:      0.3,
		},
	})
	ctx := context.Background()
	sub := Submission{ClientID: "c", Claims: []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}}

	if _, err := client.StreamSubmit(ctx, sub); err != nil {
		t.Fatal(err)
	}
	_, err := client.StreamSubmit(ctx, sub)
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusConflict {
		t.Fatalf("same-window resubmit = %v, want 409", err)
	}
	if _, err := client.StreamCloseWindow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamSubmit(ctx, sub); err != nil {
		t.Fatalf("next-window resubmit: %v", err)
	}

	// A batch carrying the same object twice is likewise refused (400).
	dup := Submission{ClientID: "d", Claims: []Claim{{Object: 0, Value: 1}, {Object: 0, Value: 2}}}
	_, err = client.StreamSubmit(ctx, dup)
	if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate-object submit = %v, want 400", err)
	}
}

// TestParticipateStreamSameWindowGuard checks the device-side half of
// the contract: the helper refuses to generate a second noisy release
// while the open window is the one it already submitted into.
func TestParticipateStreamSameWindowGuard(t *testing.T) {
	_, client := newStreamFixture(t, StreamServerConfig{
		Name: "stream-guard",
		Engine: stream.Config{
			NumObjects: 1,
			NumShards:  1,
			Lambda1:    1,
			Lambda2:    2,
			Delta:      0.3,
		},
	})
	ctx := context.Background()
	u, err := NewUser("dev", []Claim{{Object: 0, Value: 1}}, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.ParticipateStream(ctx, client); err != nil {
		t.Fatal(err)
	}
	if _, err := u.ParticipateStream(ctx, client); !errors.Is(err, ErrSameWindow) {
		t.Fatalf("same-window participate = %v, want ErrSameWindow", err)
	}
	if _, err := client.StreamCloseWindow(ctx); err != nil {
		t.Fatal(err)
	}
	receipt, err := u.ParticipateStream(ctx, client)
	if err != nil {
		t.Fatalf("next-window participate: %v", err)
	}
	if receipt.Window != 2 {
		t.Errorf("receipt window = %d, want 2", receipt.Window)
	}
}

// TestParticipateStreamNeedsLambda2 checks the device helper refuses a
// streaming campaign that publishes no perturbation rate instead of
// ever uploading raw readings.
func TestParticipateStreamNeedsLambda2(t *testing.T) {
	_, client := newStreamFixture(t, StreamServerConfig{
		Name:   "no-lambda2",
		Engine: stream.Config{NumObjects: 2, NumShards: 1},
	})
	u, err := NewUser("dev", []Claim{{Object: 0, Value: 1}}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.ParticipateStream(context.Background(), client)
	if !errors.Is(err, ErrBadClient) {
		t.Fatalf("ParticipateStream without lambda2 = %v, want ErrBadClient", err)
	}
}

// TestStreamBadRequests checks the wire-level error mapping.
func TestStreamBadRequests(t *testing.T) {
	_, client := newStreamFixture(t, StreamServerConfig{
		Name:   "stream-bad",
		Engine: stream.Config{NumObjects: 2, NumShards: 1},
	})
	ctx := context.Background()
	for _, sub := range []Submission{
		{ClientID: "", Claims: []Claim{{Object: 0, Value: 1}}},
		{ClientID: "c"},
		{ClientID: "c", Claims: []Claim{{Object: 7, Value: 1}}},
	} {
		_, err := client.StreamSubmit(ctx, sub)
		var httpErr *HTTPError
		if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusBadRequest {
			t.Errorf("StreamSubmit(%+v) = %v, want 400", sub, err)
		}
	}
	// Closing an empty window is a 409.
	_, err := client.StreamCloseWindow(ctx)
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusConflict {
		t.Errorf("empty CloseWindow = %v, want 409", err)
	}
}

// TestStreamServerRecovery restarts a persistent streaming server and
// checks the durable guarantees across the full HTTP path: the window
// counter resumes, a budget-exhausted client stays 429, the last
// published truths are served immediately from the persisted result,
// and fresh clients keep streaming.
func TestStreamServerRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := func(store *streamstore.Store) StreamServerConfig {
		return StreamServerConfig{
			Name: "stream-recover",
			Engine: stream.Config{
				NumObjects: 2,
				NumShards:  2,
				Lambda1:    1,
				Lambda2:    2,
				Delta:      0.3,
				// NewStreamServer wires the store in as the Ledger before
				// the engine validates, so the claim WAL needs no explicit
				// Ledger here.
				ClaimWAL: true,
			},
			Persistence: store,
		}
	}
	store, err := streamstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(store)
	probeCfg := c.Engine
	probeCfg.ClaimWAL = false // the throwaway epsilon probe has no ledger
	probe, err := stream.New(probeCfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := probe.EpsilonPerWindow()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	c.Engine.EpsilonBudget = 1.5 * eps // affords exactly one window

	srv1, err := NewStreamServer(c)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	client1, err := NewClient(ts1.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sub := Submission{ClientID: "cap", Claims: []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}}
	if _, err := client1.StreamSubmit(ctx, sub); err != nil {
		t.Fatal(err)
	}
	if _, err := client1.StreamCloseWindow(ctx); err != nil {
		t.Fatal(err)
	}
	// The first "process" dies (gracefully here; the crash path is
	// exercised in internal/streamstore's recovery tests).
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := streamstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store2.Close() })
	c2 := cfg(store2)
	c2.Engine.EpsilonBudget = 1.5 * eps
	srv2, err := NewStreamServer(c2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		if err := srv2.Close(); err != nil {
			t.Error(err)
		}
	})
	client2, err := NewClient(ts2.URL)
	if err != nil {
		t.Fatal(err)
	}

	info, err := client2.StreamCampaign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Window != 1 || info.TotalClaims != 2 {
		t.Errorf("recovered campaign = window %d / %d claims, want 1 / 2", info.Window, info.TotalClaims)
	}
	// The last published estimate is persisted at every close: the
	// recovered server serves window 1's truths immediately instead of
	// 404 until the next close.
	prev, err := client2.StreamTruths(ctx)
	if err != nil {
		t.Fatalf("truths right after recovery = %v, want the persisted window-1 result", err)
	}
	if prev.Window != 1 || len(prev.Truths) != 2 || prev.Truths[0] != 1 || prev.Truths[1] != 2 {
		t.Errorf("recovered truths = %+v, want window 1 with cap's claims", prev)
	}
	// The exhausted client is still refused across the restart.
	_, err = client2.StreamSubmit(ctx, sub)
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted client after restart = %v, want 429", err)
	}
	// A fresh client keeps the stream going, and the close re-publishes
	// truths from the recovered statistics (cap's window-1 claims are
	// still in the estimate).
	fresh := Submission{ClientID: "fresh", Claims: []Claim{{Object: 0, Value: 3}}}
	if _, err := client2.StreamSubmit(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	res, err := client2.StreamCloseWindow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Window != 2 {
		t.Errorf("window after recovery close = %d, want 2", res.Window)
	}
	if !res.Covered[1] {
		t.Error("object 1 lost across restart: only cap ever claimed it")
	}
	if res.Privacy == nil || res.Privacy.TrackedUsers != 2 {
		t.Errorf("privacy after recovery = %+v, want 2 tracked users", res.Privacy)
	}
}

// TestStreamServerSegmentedJournal drives a durable server over a store
// with a tiny segment cap and a snapshot every other close through
// several windows: segments must roll and be deleted by compaction, and
// a server restarted on the same directory must recover budgets and
// truths from the segmented layout.
func TestStreamServerSegmentedJournal(t *testing.T) {
	dir := t.TempDir()
	open := func() (*streamstore.Store, *Client, func()) {
		t.Helper()
		store, err := streamstore.OpenWith(dir, streamstore.Options{SegmentBytes: 256, SnapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewStreamServer(StreamServerConfig{
			Name: "segmented",
			Engine: stream.Config{
				NumObjects: 2, NumShards: 1, Lambda1: 1.5, Lambda2: 2, Delta: 0.3,
				ClaimWAL: true,
			},
			Persistence: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		client, err := NewClient(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		return store, client, func() {
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
			if err := store.Close(); err != nil {
				t.Error(err)
			}
		}
	}
	store, client, shutdown := open()
	ctx := context.Background()

	var lastTruths []float64
	for w := 0; w < 4; w++ {
		for u := 0; u < 3; u++ {
			if _, err := client.StreamSubmit(ctx, Submission{
				ClientID: fmt.Sprintf("u%d", u),
				Claims:   []Claim{{Object: 0, Value: float64(w + u)}, {Object: 1, Value: 2}},
			}); err != nil {
				t.Fatalf("window %d submit %d: %v", w, u, err)
			}
		}
		res, err := client.StreamCloseWindow(ctx)
		if err != nil {
			t.Fatalf("close %d: %v", w, err)
		}
		lastTruths = res.Truths
	}
	st := store.Stats(false)
	if st.SegmentsSealed < 2 {
		t.Errorf("segments sealed = %d, want >= 2 (claim-WAL records at a 256-byte cap must roll)", st.SegmentsSealed)
	}
	if st.SegmentsDeleted < 1 {
		t.Errorf("segments deleted = %d; covered segments not reclaimed", st.SegmentsDeleted)
	}
	shutdown()

	// Restart on the same directory: recovery from segments alone.
	_, client2, shutdown2 := open()
	defer shutdown2()
	got, err := client2.StreamTruths(ctx)
	if err != nil {
		t.Fatalf("truths after restart: %v", err)
	}
	if got.Window != 4 {
		t.Fatalf("recovered window = %d, want 4", got.Window)
	}
	for i, v := range lastTruths {
		if math.Abs(got.Truths[i]-v) > 1e-9 {
			t.Errorf("recovered truth[%d] = %v, want %v", i, got.Truths[i], v)
		}
	}
	// Budgets survived too: a user re-submitting into the re-opened
	// window is charged on top of the recovered spending, not afresh.
	sub := Submission{ClientID: "u0", Claims: []Claim{{Object: 0, Value: 1}}}
	if _, err := client2.StreamSubmit(ctx, sub); err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if _, err := client2.StreamSubmit(ctx, sub); !errors.Is(err, stream.ErrDuplicateWindow) {
		t.Fatalf("duplicate submit after restart = %v, want ErrDuplicateWindow", err)
	}
}
