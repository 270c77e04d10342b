package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pptd/internal/crowd"
	"pptd/internal/obs"
	"pptd/internal/stream"
)

// TestClaimHopKeepsRequestID: a claim the coordinator routes reaches
// the owning worker under the front door's X-Request-ID — whichever
// wire it arrived on — so one ID joins the coordinator's and the
// worker's request logs.
func TestClaimHopKeepsRequestID(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	shard, err := crowd.NewStreamServer(crowd.StreamServerConfig{Name: "shard", Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shard.Close() })
	workerMux := http.NewServeMux()
	crowd.RegisterStream(workerMux, shard, 0)
	shard.RegisterCluster(workerMux)
	var mu sync.Mutex
	var seen []string // X-Request-ID of every claim POST the worker received
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == crowd.PathStreamClaims {
			mu.Lock()
			seen = append(seen, r.Header.Get(crowd.HeaderRequestID))
			mu.Unlock()
		}
		workerMux.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	coord, err := NewCoordinator(Config{Name: "hop", Engine: cfg, Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	// The node's middleware is what installs the request ID in the
	// context the coordinator's worker client reads.
	front := httptest.NewServer(obs.Middleware(obs.MiddlewareConfig{Registry: obs.NewRegistry()})(coord.Handler()))
	t.Cleanup(front.Close)

	claim := []crowd.Claim{{Object: 0, Value: 1}}
	for _, sub := range []struct {
		id, contentType string
		body            []byte
	}{
		{"hop-json-1", "application/json", []byte(`{"clientId":"a","claims":[{"object":0,"value":1}]}`)},
		{"hop-frame-2", crowd.ContentTypeClaims, crowd.AppendClaimFrame(nil, "b", claim)},
	} {
		req, err := http.NewRequest(http.MethodPost, front.URL+crowd.PathStreamClaims, bytes.NewReader(sub.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", sub.contentType)
		req.Header.Set(crowd.HeaderRequestID, sub.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sub.id, resp.StatusCode, body)
		}
		if got := resp.Header.Get(crowd.HeaderRequestID); got != sub.id {
			t.Errorf("%s: front door echoed %q", sub.id, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "hop-json-1" || seen[1] != "hop-frame-2" {
		t.Fatalf("worker saw claim request IDs %q, want the front door's [hop-json-1 hop-frame-2]", seen)
	}
}

// captureIDs records the X-Request-ID of every request it forwards, by
// path.
type captureIDs struct {
	next http.RoundTripper

	mu   sync.Mutex
	seen map[string][]string
}

func (c *captureIDs) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.seen[req.URL.Path] = append(c.seen[req.URL.Path], req.Header.Get(crowd.HeaderRequestID))
	c.mu.Unlock()
	return c.next.RoundTrip(req)
}

// reset forgets everything captured so far.
func (c *captureIDs) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen = map[string][]string{}
}

// calls counts the captured requests under paths.
func (c *captureIDs) calls(paths ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range paths {
		n += len(c.seen[p])
	}
	return n
}

// take returns the one request ID every captured request under paths
// carried (failing when they carry several, or none was captured) and
// forgets everything captured so far.
func (c *captureIDs) take(t *testing.T, what string, paths ...string) string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := map[string]int{}
	for _, p := range paths {
		for _, id := range c.seen[p] {
			ids[id]++
		}
	}
	c.seen = map[string][]string{}
	if len(ids) != 1 {
		t.Fatalf("%s: the RPCs carried request IDs %v, want one", what, ids)
	}
	for id := range ids {
		if !obs.ValidRequestID(id) {
			t.Fatalf("%s: request ID %q", what, id)
		}
		return id
	}
	return ""
}

// TestCloseRoundCarriesOneRequestID: every probe, force and commit RPC
// of one cluster close round carries the same X-Request-ID, two rounds
// carry different ones, and a boot-time re-drive runs under an ID of its
// own — so the workers' logs of one round join on one ID.
func TestCloseRoundCarriesOneRequestID(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	workers := []*testWorker{startWorker(t, cfg, "w0"), startWorker(t, cfg, "w1")}
	defer func() {
		for _, w := range workers {
			w.closeAll(t)
		}
	}()
	urls := []string{workers[0].url, workers[1].url}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	capture := &captureIDs{next: tr, seen: map[string][]string{}}
	coord, err := NewCoordinator(Config{Name: "ids", Engine: cfg, Workers: urls, HTTPClient: &http.Client{Transport: capture}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })

	ctx := context.Background()
	// One user per round, on one worker: each round probes both workers,
	// forces the empty one and commits both.
	user := findUserOwnedBy(t, coord.Ring(), urls[0])
	var rounds []string
	for window := 1; window <= 2; window++ {
		if _, err := coord.Submit(ctx, crowd.Submission{ClientID: user, Claims: []crowd.Claim{{Object: 0, Value: float64(window)}}}); err != nil {
			t.Fatal(err)
		}
		capture.reset()
		if _, err := coord.CloseWindow(); err != nil {
			t.Fatal(err)
		}
		if n := capture.calls(crowd.PathClusterClose, crowd.PathClusterCommit); n != 5 {
			t.Fatalf("round %d made %d close and commit RPCs, want 5", window, n)
		}
		rounds = append(rounds, capture.take(t, fmt.Sprintf("round %d", window), crowd.PathClusterClose, crowd.PathClusterCommit))
	}
	if rounds[0] == rounds[1] {
		t.Fatalf("two close rounds shared request ID %q", rounds[0])
	}

	// A coordinator dies after every worker closed window 3; its successor
	// re-drives the round at boot.
	if _, err := coord.Submit(ctx, crowd.Submission{ClientID: user, Claims: []crowd.Claim{{Object: 1, Value: 3}}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if _, err := w.worker.srv.ClusterClose(crowd.ClusterCloseRequest{Window: 3, Force: true}); err != nil {
			t.Fatal(err)
		}
	}
	capture.reset()
	successor, err := NewCoordinator(Config{Name: "ids", Engine: cfg, Workers: urls, HTTPClient: &http.Client{Transport: capture}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = successor.Close() })
	if n := capture.calls(crowd.PathClusterCommit); successor.Window() != 3 || n != 2 {
		t.Fatalf("successor booted at window %d after %d commits, want a re-drive to 3", successor.Window(), n)
	}
	redrive := capture.take(t, "boot re-drive", crowd.PathStreamCampaign, crowd.PathClusterStatus, crowd.PathClusterClose, crowd.PathClusterCommit)
	if redrive == rounds[0] || redrive == rounds[1] {
		t.Fatalf("the re-drive reused a close round's request ID %q", redrive)
	}
}
