package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pptd/internal/crowd"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// TestPerUserWeightsHeldOnce runs 2000 users through HistoryWindows + 2
// closes on a durable node and on a coordinator, and holds the retention
// contract: no retained window — engine ring, coordinator ring,
// result.json, result-<n>.json — keeps a per-user weight, so the default
// truths read and the result files are O(objects) and the per-user
// floats a deployment retains do not grow with the windows it keeps. The
// one copy that is kept — the carry on a node, the latest map on a
// coordinator — still answers ?weights=1 with exactly what the last
// close replied.
func TestPerUserWeightsHeldOnce(t *testing.T) {
	const users, objects = 2000, 16
	submission := func(u int) crowd.Submission {
		return crowd.Submission{ClientID: fmt.Sprintf("device-%04d", u), Claims: []crowd.Claim{
			{Object: u % objects, Value: float64(u%7) - 3},
			{Object: (u + 5) % objects, Value: float64(u%11) / 4},
		}}
	}
	get := func(h http.Handler, path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	// No decay, so the first window's statistics stay live and the later
	// closes need no fresh claims.
	closeAll := func(b crowd.StreamBackend, closes int) crowd.StreamWindowInfo {
		t.Helper()
		var last crowd.StreamWindowInfo
		for i := 0; i < closes; i++ {
			var err error
			if last, err = b.CloseWindow(); err != nil {
				t.Fatalf("close %d: %v", i+1, err)
			}
			if len(last.Weights) != users {
				t.Fatalf("close %d replied with %d weights, want %d", i+1, len(last.Weights), users)
			}
		}
		return last
	}
	checkReads := func(b crowd.StreamBackend, h http.Handler, last crowd.StreamWindowInfo) {
		t.Helper()
		if body := get(h, crowd.PathStreamTruths); len(body) >= 2<<10 {
			t.Errorf("default GET /v1/stream/truths is %d bytes for %d truths, want < 2 KB", len(body), objects)
		}
		withWeights, err := b.TruthsAt(0, true)
		if err != nil || !reflect.DeepEqual(withWeights, last) {
			t.Errorf("?weights=1 differs from the last close reply (err %v)", err)
		}
	}
	// checkRing: ?window=N answers the last HistoryWindows closes, and
	// ?weights=1 only the latest.
	checkRing := func(b crowd.StreamBackend, closes int) {
		t.Helper()
		for w := 1; w <= closes; w++ {
			_, err := b.TruthsAt(w, false)
			if retained := w > closes-stream.HistoryWindows; retained != (err == nil) {
				t.Errorf("?window=%d: err %v, want retained %v", w, err, retained)
			}
		}
		if _, err := b.TruthsAt(closes-1, true); !errors.Is(err, crowd.ErrUnknownWindow) {
			t.Errorf("?window=%d&weights=1 = %v, want ErrUnknownWindow", closes-1, err)
		}
	}

	const windows = stream.HistoryWindows
	cfg := stream.Config{NumObjects: objects}
	dir := t.TempDir()
	store, err := streamstore.OpenWith(dir, streamstore.Options{ResultHistory: windows})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }()
	node, err := crowd.NewStreamServer(crowd.StreamServerConfig{Name: "held-once", Engine: cfg, Persistence: store})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	worker, err := crowd.NewStreamServer(crowd.StreamServerConfig{Name: "shard", Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = worker.Close() }()
	workerMux := http.NewServeMux()
	workerMux.Handle("/v1/stream/", worker.Handler())
	worker.RegisterCluster(workerMux)
	ts := httptest.NewServer(workerMux)
	defer ts.Close()
	coord, err := NewCoordinator(Config{Name: "held-once", Engine: cfg, Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		if _, err := node.Submit(submission(u)); err != nil {
			t.Fatal(err)
		}
		if _, err := worker.Submit(submission(u)); err != nil { // straight to the shard: the hop is not under test
			t.Fatal(err)
		}
	}

	last := closeAll(node, windows+2)
	kept, engineFloats := 0, 0
	for w := 1; w <= windows+2; w++ {
		if res, ok := node.Engine().ResultAt(w); ok {
			kept++
			engineFloats += len(res.Weights)
		}
	}
	if kept != windows {
		t.Errorf("engine ring holds %d windows, want %d", kept, windows)
	}
	checkReads(node, node.Handler(), last)
	checkRing(node, windows+2)
	files, err := filepath.Glob(filepath.Join(dir, "result*.json"))
	if err != nil || len(files) < windows {
		t.Fatalf("result files %v, %v", files, err)
	}
	for _, f := range files {
		if st, err := os.Stat(f); err != nil || st.Size() >= 1<<10 {
			t.Errorf("%s is %d bytes for %d truths, want < 1 KB (%v)", filepath.Base(f), st.Size(), objects, err)
		}
	}

	last = closeAll(coord, windows+2)
	coord.histMu.RLock()
	if len(coord.history) != windows {
		t.Errorf("coordinator ring holds %d windows, want %d", len(coord.history), windows)
	}
	coordFloats := len(coord.weights)
	for _, info := range coord.history {
		if info.Weights != nil {
			t.Errorf("coordinator ring entry for window %d holds %d weights", info.Window, len(info.Weights))
		}
		coordFloats += len(info.Weights)
	}
	coord.histMu.RUnlock()
	checkReads(coord, crowd.StreamHandler(coord, 0), last)
	checkRing(coord, windows+2)
	if engineFloats != 0 || coordFloats != users {
		t.Errorf("retained per-user floats {engine ring, coordinator} = {%d, %d}, want {0, %d}",
			engineFloats, coordFloats, users)
	}
}
