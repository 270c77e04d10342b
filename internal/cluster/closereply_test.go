package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"pptd/internal/crowd"
	"pptd/internal/stream"
)

// TestCoordinatorWithholdsBadCloseReply: a worker whose close reply is a
// well-formed state for the wrong window, bytes that do not decode, or
// JSON withholds the round — no window advance, nothing published — and
// once it answers honestly the retried round closes the window.
func TestCoordinatorWithholdsBadCloseReply(t *testing.T) {
	cfg := stream.Config{NumObjects: 3}
	wrongWindow, err := stream.AppendEngineState(nil, &stream.EngineState{NumObjects: cfg.NumObjects, Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	replies := map[string]struct {
		contentType string
		body        []byte
		want        error
	}{
		"state for the wrong window": {crowd.ContentTypeEngineState, wrongWindow, stream.ErrBadState},
		"undecodable bytes":          {crowd.ContentTypeEngineState, []byte{0xff, 0xff, 0xff}, stream.ErrBadStateEncoding},
		"JSON reply":                 {"application/json", []byte(`{"state":{"window":0}}`), stream.ErrBadStateEncoding},
	}
	var lie atomic.Value // the reply the liar sends; "" passes through
	lie.Store("")
	var urls []string
	for i := 0; i < 2; i++ {
		shard, err := crowd.NewStreamServer(crowd.StreamServerConfig{Name: "shard", Engine: cfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = shard.Close() })
		mux := http.NewServeMux()
		crowd.RegisterStream(mux, shard, 0)
		shard.RegisterCluster(mux)
		h := http.Handler(mux)
		if i == 0 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if name := lie.Load().(string); name != "" && r.URL.Path == crowd.PathClusterClose {
					w.Header().Set("Content-Type", replies[name].contentType)
					_, _ = w.Write(replies[name].body)
					return
				}
				mux.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord, err := NewCoordinator(Config{Name: "liar", Engine: cfg, Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	for u := 0; u < 20; u++ {
		if _, err := coord.Submit(context.Background(), toSubmission(userID(u), claimsFor(u, 1, cfg.NumObjects))); err != nil {
			t.Fatal(err)
		}
	}

	for name, reply := range replies {
		lie.Store(name)
		if _, err := coord.CloseWindow(); !errors.Is(err, reply.want) {
			t.Fatalf("%s: close = %v, want %v", name, err, reply.want)
		}
		if coord.Window() != 0 {
			t.Fatalf("%s: coordinator advanced to window %d", name, coord.Window())
		}
		if _, err := coord.TruthsAt(0, false); !errors.Is(err, crowd.ErrNotReady) {
			t.Fatalf("%s: truths after a withheld round = %v, want ErrNotReady", name, err)
		}
	}
	lie.Store("")
	if info, err := coord.CloseWindow(); err != nil || info.Window != 1 {
		t.Fatalf("honest retry = window %d, %v; want window 1", info.Window, err)
	}
}
