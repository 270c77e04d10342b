package crowd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// clusterWorkerConfig is the engine a worker runs in these tests: GTM, so
// the committed carries are precisions warm-starting the next window.
func clusterWorkerConfig() stream.Config {
	return stream.Config{NumObjects: 4, NumShards: 2, Estimator: stream.EstimatorGTM}
}

// newClusterWorker boots a worker (durable when store is set) with the
// cluster RPCs mounted next to the stream API, and feeds it one window of
// claims from a dozen users.
func newClusterWorker(t testing.TB, store *streamstore.Store) (*StreamServer, http.Handler) {
	t.Helper()
	srv, err := NewStreamServer(StreamServerConfig{Name: "worker", Engine: clusterWorkerConfig(), Persistence: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	for u := 0; u < 12; u++ {
		sub := Submission{ClientID: fmt.Sprintf("dev-%02d", u)}
		for o := 0; o < 4; o++ {
			if (u+o)%2 == 0 {
				sub.Claims = append(sub.Claims, Claim{Object: o, Value: math.Sin(float64(5*u + 3*o))})
			}
		}
		if _, err := srv.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	mux := http.NewServeMux()
	RegisterStream(mux, srv, 0)
	srv.RegisterCluster(mux)
	return srv, mux
}

// postClusterClose fires one close RPC at h and returns the response.
func postClusterClose(t testing.TB, h http.Handler, window int, force bool) *httptest.ResponseRecorder {
	t.Helper()
	body := fmt.Sprintf(`{"window":%d,"force":%v}`, window, force)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathClusterClose, strings.NewReader(body)))
	return rec
}

// mergedCommit computes the commit a coordinator over this one worker
// would send for its export: merge, estimate, read the carries back.
func mergedCommit(t testing.TB, window int, export []byte) ClusterCommitRequest {
	t.Helper()
	st, err := stream.DecodeEngineState(export)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.New(clusterWorkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Close() }()
	if err := eng.Restore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	carries, err := eng.ExportCarry()
	if err != nil {
		t.Fatal(err)
	}
	return ClusterCommitRequest{Window: window, Carries: carries}
}

// TestRetriedClusterCloseResendsTheBytes: the close export is encoded
// once; every retry of that close — in-process, over HTTP, and on a
// worker recovered from a crash image — answers with the very same
// bytes, and they decode to the state the worker exported.
func TestRetriedClusterCloseResendsTheBytes(t *testing.T) {
	dir := t.TempDir()
	store, err := streamstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	srv, h := newClusterWorker(t, store)
	first, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Empty || len(first.State) == 0 || cap(first.State) != len(first.State) {
		t.Fatalf("close reply: empty %v, %d bytes, capacity %d", first.Empty, len(first.State), cap(first.State))
	}
	want := bytes.Clone(first.State)

	retry, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil || !bytes.Equal(retry.State, want) {
		t.Fatalf("in-process retry = %d bytes, %v; want the first reply's %d", len(retry.State), err, len(want))
	}

	checkHTTP := func(name string, h http.Handler) {
		t.Helper()
		rec := postClusterClose(t, h, 1, true)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != ContentTypeEngineState {
			t.Fatalf("%s: HTTP retry = %d %q: %s", name, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: HTTP retry body differs from the first reply (%d vs %d bytes)", name, rec.Body.Len(), len(want))
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		client, err := NewClient(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		st, err := client.ClusterClose(context.Background(), ClusterCloseRequest{Window: 1, Force: true})
		decoded, derr := stream.DecodeEngineState(want)
		if err != nil || derr != nil || !reflect.DeepEqual(st, decoded) || st.Window != 0 {
			t.Fatalf("%s: client decoded %+v, %v; want %+v, %v", name, st, err, decoded, derr)
		}
	}
	checkHTTP("live worker", h)

	// Kill: copy the state directory as a power cut leaves it and boot a
	// fresh worker over the copy. Its engine already closed window 1, and
	// only the cached export answers the retry.
	image := crashImage(t, dir)
	restored, err := streamstore.Open(image)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restored.Close() })
	recovered, err := NewStreamServer(StreamServerConfig{Name: "recovered", Engine: clusterWorkerConfig(), Persistence: restored})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = recovered.Close() })
	if got := recovered.Engine().Window(); got != 1 {
		t.Fatalf("recovered worker at %d closed windows, want 1", got)
	}
	again, err := recovered.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil || !bytes.Equal(again.State, want) || cap(again.State) != len(again.State) {
		t.Fatalf("retry after recovery = %d bytes (capacity %d), %v; want the first reply's %d",
			len(again.State), cap(again.State), err, len(want))
	}
	mux := http.NewServeMux()
	recovered.RegisterCluster(mux)
	checkHTTP("recovered worker", mux)
}

// TestEmptyProbeIsNoContent: a probe of a worker holding no statistics
// answers 204 with no body and closes nothing; the client reads it as no
// state.
func TestEmptyProbeIsNoContent(t *testing.T) {
	srv, err := NewStreamServer(StreamServerConfig{Name: "idle", Engine: clusterWorkerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	mux := http.NewServeMux()
	srv.RegisterCluster(mux)
	rec := postClusterClose(t, mux, 1, false)
	if rec.Code != http.StatusNoContent || rec.Body.Len() != 0 {
		t.Fatalf("empty probe = %d with %d body bytes, want 204 and none", rec.Code, rec.Body.Len())
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := client.ClusterClose(context.Background(), ClusterCloseRequest{Window: 1}); st != nil || err != nil {
		t.Fatalf("client read the empty probe as %+v, %v; want no state", st, err)
	}
	if got := srv.Engine().Window(); got != 0 {
		t.Fatalf("empty probe advanced the worker to %d closed windows", got)
	}
}

// recordHeader is the length of cluster-close.json's header; the
// payload follows it (docs/DURABILITY.md).
const recordHeader = 33

// readClusterRecord reads dir's cluster-close.json whole.
func readClusterRecord(t testing.TB, dir string) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join(dir, streamstore.ClusterCloseFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(file) < recordHeader {
		t.Fatalf("cluster-close.json is %d bytes, shorter than its header", len(file))
	}
	return file
}

// closeAndCommit runs one full coordinated round for window 1 on srv:
// the forced close, then the commit a one-worker coordinator would send.
func closeAndCommit(t testing.TB, srv *StreamServer) []byte {
	t.Helper()
	reply, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ClusterCommit(mergedCommit(t, 1, reply.State)); err != nil {
		t.Fatal(err)
	}
	return reply.State
}

// TestClusterExportIsTheRecordPayload: on a durable worker the close
// reply is cluster-close.json's payload byte for byte. The commit's
// rewrite changes the committed word and the checksum and nothing else;
// after it the worker holds no export bytes, and a retried close — in
// process or over HTTP — answers with the record's payload.
func TestClusterExportIsTheRecordPayload(t *testing.T) {
	dir := t.TempDir()
	store, err := streamstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	srv, h := newClusterWorker(t, store)
	reply, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.clusterExport) == 0 || &reply.State[0] != &srv.clusterExport[0] {
		t.Fatal("the close reply is not the export the open round holds")
	}
	closed := readClusterRecord(t, dir)
	if !bytes.Equal(closed[recordHeader:], reply.State) {
		t.Fatalf("cluster-close.json payload (%d bytes) is not the close reply (%d bytes)", len(closed)-recordHeader, len(reply.State))
	}
	want := bytes.Clone(reply.State)
	if _, err := srv.ClusterCommit(mergedCommit(t, 1, reply.State)); err != nil {
		t.Fatal(err)
	}
	if srv.clusterExport != nil {
		t.Fatalf("durable worker still holds %d export bytes after the commit", len(srv.clusterExport))
	}
	committed := readClusterRecord(t, dir)
	if len(committed) != len(closed) {
		t.Fatalf("commit rewrote the record at %d bytes, was %d", len(committed), len(closed))
	}
	for i := range closed {
		word := i >= 13 && i < 21 // committed flag
		crc := i >= 29 && i < 33
		if closed[i] != committed[i] && !word && !crc {
			t.Fatalf("commit changed byte %d of the record (%#x -> %#x)", i, closed[i], committed[i])
		}
	}
	if closed[13] != 0 || committed[13] != 1 {
		t.Fatalf("committed flag %d -> %d, want 0 -> 1", closed[13], committed[13])
	}

	retry, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil || !bytes.Equal(retry.State, committed[recordHeader:]) || !bytes.Equal(retry.State, want) {
		t.Fatalf("retry after the commit = %d bytes, %v; want the record's payload (%d bytes)", len(retry.State), err, len(want))
	}
	rec := postClusterClose(t, h, 1, true)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("HTTP retry after the commit = %d with %d bytes; want 200 and the record's payload", rec.Code, rec.Body.Len())
	}
	if srv.clusterExport != nil {
		t.Fatal("a retried close held the record's payload again")
	}
	if got := srv.ClusterStatus(); got != (ClusterStatusReply{Window: 1, PendingWindow: 1, CommittedWindow: 1}) {
		t.Fatalf("status after the commit = %+v, want window, pending and committed all 1", got)
	}
}

// TestMemoryOnlyWorkerKeepsItsExport: a worker with no store has no
// other copy of its export, so it holds the bytes past the commit and
// answers a close retried after it with the identical bytes.
func TestMemoryOnlyWorkerKeepsItsExport(t *testing.T) {
	srv, h := newClusterWorker(t, nil)
	want := bytes.Clone(closeAndCommit(t, srv))
	if !bytes.Equal(srv.clusterExport, want) {
		t.Fatalf("memory-only worker holds %d export bytes after the commit, want its %d", len(srv.clusterExport), len(want))
	}
	retry, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil || !bytes.Equal(retry.State, want) {
		t.Fatalf("retry after the commit = %d bytes, %v; want the first reply's %d", len(retry.State), err, len(want))
	}
	if rec := postClusterClose(t, h, 1, true); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("HTTP retry after the commit = %d with %d bytes; want 200 and the first reply", rec.Code, rec.Body.Len())
	}
	if got := srv.ClusterStatus(); got != (ClusterStatusReply{Window: 1, PendingWindow: 1, CommittedWindow: 1}) {
		t.Fatalf("status after the commit = %+v, want window, pending and committed all 1", got)
	}
}

// TestRetriedCloseRefusesDamagedRecord: once the commit dropped the held
// bytes, a retried close serves the record — so a committed record with
// one flipped payload bit fails the retry with ErrCorruptClusterClose
// and a 5xx envelope, is never re-exported, and moves no window.
func TestRetriedCloseRefusesDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	store, err := streamstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	srv, h := newClusterWorker(t, store)
	closeAndCommit(t, srv)
	file := readClusterRecord(t, dir)
	file[recordHeader+(len(file)-recordHeader)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, streamstore.ClusterCloseFileName), file, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true}); !errors.Is(err, streamstore.ErrCorruptClusterClose) {
		t.Fatalf("retry over a damaged record: err = %v, want ErrCorruptClusterClose", err)
	}
	rec := postClusterClose(t, h, 1, true)
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code < 500 || body.Code != CodeInternal {
		t.Fatalf("HTTP retry over a damaged record = %d %s (%v); want a 5xx %q envelope", rec.Code, rec.Body, err, CodeInternal)
	}
	if got := srv.Engine().Window(); got != 1 {
		t.Fatalf("refused retries moved the engine to %d closed windows, want 1", got)
	}
	if srv.clusterExport != nil {
		t.Fatal("a refused retry held the damaged payload")
	}
}

// TestWorkerBootsOnCommittedRecordWithoutBytes: a worker restarted on a
// committed record verifies it and holds no export bytes, yet answers
// the retried close from the file; restarted on an uncommitted record it
// holds them again, for the retry and the commit's rewrite.
func TestWorkerBootsOnCommittedRecordWithoutBytes(t *testing.T) {
	dir := t.TempDir()
	store, err := streamstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	srv, _ := newClusterWorker(t, store)
	reply, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(reply.State)
	open := crashImage(t, dir)
	if _, err := srv.ClusterCommit(mergedCommit(t, 1, want)); err != nil {
		t.Fatal(err)
	}
	committed := crashImage(t, dir)

	boot := func(image string) *StreamServer {
		t.Helper()
		restored, err := streamstore.Open(image)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = restored.Close() })
		w, err := NewStreamServer(StreamServerConfig{Name: "restarted", Engine: clusterWorkerConfig(), Persistence: restored})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		return w
	}
	if w := boot(open); !bytes.Equal(w.clusterExport, want) {
		t.Fatalf("worker booted on an uncommitted record holds %d export bytes, want its %d", len(w.clusterExport), len(want))
	}

	w := boot(committed)
	if w.clusterExport != nil {
		t.Fatalf("worker booted on a committed record holds %d export bytes", len(w.clusterExport))
	}
	if got := w.ClusterStatus(); got != (ClusterStatusReply{Window: 1, PendingWindow: 1, CommittedWindow: 1}) {
		t.Fatalf("status after the restart = %+v, want window, pending and committed all 1", got)
	}
	retry, err := w.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil || !bytes.Equal(retry.State, want) {
		t.Fatalf("retry after the restart = %d bytes, %v; want the first reply's %d", len(retry.State), err, len(want))
	}
	if w.clusterExport != nil || w.Engine().Window() != 1 {
		t.Fatalf("retry after the restart held %d bytes and left the engine at %d windows; want none and 1",
			len(w.clusterExport), w.Engine().Window())
	}
}

// FuzzClusterCommit: the commit RPC is the close round's last JSON
// decoder. Whatever body reaches it, a worker that closed window 1 never
// panics and never answers 5xx, and a refused commit leaves its state
// exactly as it was.
func FuzzClusterCommit(f *testing.F) {
	srv, h := newClusterWorker(f, nil)
	reply, err := srv.ClusterClose(ClusterCloseRequest{Window: 1, Force: true})
	if err != nil {
		f.Fatal(err)
	}
	captured, err := json.Marshal(mergedCommit(f, 1, reply.State))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(captured)
	for _, carry := range []string{
		`{"id":"dev-01","carry":-1}`,
		`{"id":"","carry":1}`,
		`{"id":"dev-01","carry":"x"}`,
		`{"id":7,"carry":1}`,
		`"garbage"`,
		`{"id":"dev-01","carry":1e999}`,
	} {
		f.Add([]byte(`{"window":1,"carries":[{"id":"dev-00","carry":2},` + carry + `]}`))
	}
	f.Add([]byte(`{"window":2,"carries":[]}`))
	f.Add([]byte(`{"window":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		before, err := srv.Engine().ExportState()
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathClusterCommit, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("commit answered %d: %s", rec.Code, rec.Body)
		}
		if rec.Code/100 == 2 {
			return
		}
		after, err := srv.Engine().ExportState()
		if err != nil || !reflect.DeepEqual(after, before) {
			t.Fatalf("refused commit (%d: %s) changed the worker's state, %v", rec.Code, rec.Body, err)
		}
	})
}

// TestClusterCloseRefusesJSONReply: a worker answering the close in JSON
// (one that predates the binary reply) is refused, not half-read.
func TestClusterCloseRefusesJSONReply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"state": map[string]any{"window": 0}})
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.ClusterClose(context.Background(), ClusterCloseRequest{Window: 1, Force: true})
	if !errors.Is(err, stream.ErrBadStateEncoding) || !strings.Contains(err.Error(), ContentTypeEngineState) {
		t.Fatalf("JSON close reply: err = %v, want ErrBadStateEncoding naming %s", err, ContentTypeEngineState)
	}
}
