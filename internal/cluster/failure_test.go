package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"pptd/internal/crowd"
	"pptd/internal/stream"
)

// findUserOwnedBy returns a user ID the ring assigns to the given
// worker.
func findUserOwnedBy(t *testing.T, ring *Ring, worker string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("probe-%04d", i)
		if ring.Owner(id) == worker {
			return id
		}
	}
	t.Fatalf("no user hashes to worker %s", worker)
	return ""
}

// TestWorkerDownAtClaim: a claim whose owning worker is unreachable
// fails with the typed worker_unavailable envelope naming the worker,
// while claims owned by live workers keep flowing.
func TestWorkerDownAtClaim(t *testing.T) {
	cfg := stream.Config{NumObjects: 3}
	workers := []*testWorker{startWorker(t, cfg, "w0"), startWorker(t, cfg, "w1")}
	defer func() {
		workers[1].closeAll(t)
		// workers[0] had its listener closed; close the rest of it.
		_ = workers[0].worker.Close()
		_ = workers[0].store.Close()
	}()
	coord, err := NewCoordinator(Config{Name: "down", Engine: cfg, Workers: []string{workers[0].url, workers[1].url}})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer func() {
		_ = coord.Close()
	}()

	// Serve the coordinator over real HTTP so the typed envelope is
	// tested end to end, client included.
	front := &http.Server{Handler: coord.Handler()}
	ln := newLocalListener(t)
	go func() {
		_ = front.Serve(ln)
	}()
	defer func() {
		_ = front.Close()
	}()
	client, err := crowd.NewClient("http://" + ln.Addr().String())
	if err != nil {
		t.Fatalf("client: %v", err)
	}

	victim := workers[0]
	victim.stopListening(t)
	ctx := context.Background()

	deadUser := findUserOwnedBy(t, coord.Ring(), victim.url)
	_, err = client.StreamSubmit(ctx, crowd.Submission{
		ClientID: deadUser, Claims: []crowd.Claim{{Object: 0, Value: 1}},
	})
	if !errors.Is(err, crowd.ErrWorkerUnavailable) {
		t.Fatalf("submit to dead worker: err = %v, want ErrWorkerUnavailable", err)
	}
	var httpErr *crowd.HTTPError
	if !errors.As(err, &httpErr) {
		t.Fatalf("submit to dead worker: no HTTPError in %v", err)
	}
	if httpErr.StatusCode != http.StatusServiceUnavailable || httpErr.Code != crowd.CodeWorkerUnavailable {
		t.Fatalf("submit to dead worker: status %d code %q, want 503 %q",
			httpErr.StatusCode, httpErr.Code, crowd.CodeWorkerUnavailable)
	}
	if !strings.Contains(httpErr.Message, victim.url) {
		t.Fatalf("error does not name the dead worker %s: %q", victim.url, httpErr.Message)
	}

	liveUser := findUserOwnedBy(t, coord.Ring(), workers[1].url)
	if _, err := client.StreamSubmit(ctx, crowd.Submission{
		ClientID: liveUser, Claims: []crowd.Claim{{Object: 0, Value: 1}},
	}); err != nil {
		t.Fatalf("submit to live worker: %v", err)
	}
}

// TestWorkerDownAtClose: when a worker is unreachable during a cluster
// close, the result is withheld — never partially merged — and the
// retried close after the worker returns publishes exactly what a
// single node would have (the surviving workers answer the retry from
// their export caches).
func TestWorkerDownAtClose(t *testing.T) {
	cfg := stream.Config{NumObjects: 4}
	workers := []*testWorker{startWorker(t, cfg, "w0"), startWorker(t, cfg, "w1"), startWorker(t, cfg, "w2")}
	defer func() {
		for _, w := range workers {
			w.closeAll(t)
		}
	}()
	urls := []string{workers[0].url, workers[1].url, workers[2].url}
	coord, err := NewCoordinator(Config{Name: "close-down", Engine: cfg, Workers: urls})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer func() {
		_ = coord.Close()
	}()

	// Single-node reference over the same claims.
	ref, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	defer func() {
		_ = ref.Close()
	}()

	ctx := context.Background()
	byURL := map[string]*testWorker{}
	for _, w := range workers {
		byURL[w.url] = w
	}
	// Submit enough users that every worker owns at least one.
	owned := map[string]bool{}
	for u := 0; u < 30; u++ {
		id := userID(u)
		claims := claimsFor(u, 1, cfg.NumObjects)
		if _, _, err := ref.Ingest(id, claims); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
		if _, err := coord.Submit(ctx, toSubmission(id, claims)); err != nil {
			t.Fatalf("cluster submit: %v", err)
		}
		owned[coord.Ring().Owner(id)] = true
	}
	if len(owned) != len(workers) {
		t.Fatalf("claims reached %d of %d workers; widen the user set", len(owned), len(workers))
	}

	victim := workers[2]
	victim.stopListening(t)
	if _, err := coord.CloseWindow(); !errors.Is(err, crowd.ErrWorkerUnavailable) {
		t.Fatalf("close with dead worker: err = %v, want ErrWorkerUnavailable", err)
	}
	// Withheld means withheld: no result, no window advance.
	if coord.Window() != 0 {
		t.Fatalf("coordinator advanced to window %d despite failed close", coord.Window())
	}
	if _, err := coord.TruthsAt(0, false); !errors.Is(err, crowd.ErrNotReady) {
		t.Fatalf("truths after failed close: err = %v, want ErrNotReady", err)
	}

	victim.relisten(t)
	refRes, err := ref.CloseWindow()
	if err != nil {
		t.Fatalf("reference close: %v", err)
	}
	got, err := coord.CloseWindow()
	if err != nil {
		t.Fatalf("retried close: %v", err)
	}
	// The retried close merged every worker's claims — including the
	// two survivors' cached exports — into the single-node answer.
	requireEquivalent(t, 1, crowd.WindowInfo(refRes), got)
}

// TestRingStableAcrossCoordinatorRestarts: a rebuilt coordinator over
// the same worker set (any order) routes every user to the same worker,
// so restarts never silently move a user's privacy ledger.
func TestRingStableAcrossCoordinatorRestarts(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	workers := []*testWorker{startWorker(t, cfg, "w0"), startWorker(t, cfg, "w1"), startWorker(t, cfg, "w2")}
	defer func() {
		for _, w := range workers {
			w.closeAll(t)
		}
	}()
	urls := []string{workers[0].url, workers[1].url, workers[2].url}
	first, err := NewCoordinator(Config{Name: "ring", Engine: cfg, Workers: urls})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	owners := map[string]string{}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("user-%d", i)
		owners[id] = first.Ring().Owner(id)
	}
	if err := first.Close(); err != nil {
		t.Fatalf("close first coordinator: %v", err)
	}

	shuffled := append([]string(nil), urls...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	second, err := NewCoordinator(Config{Name: "ring", Engine: cfg, Workers: shuffled})
	if err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}
	defer func() {
		_ = second.Close()
	}()
	for id, want := range owners {
		if got := second.Ring().Owner(id); got != want {
			t.Fatalf("user %s moved from %s to %s across coordinator restart", id, want, got)
		}
	}
}
