package cluster

import (
	"bytes"
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
