package cluster

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pptd/internal/crowd"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
	"pptd/internal/streamstore/storefs"
)

// countingSink wraps a Sink and records every Put.
type countingSink struct {
	Sink
	puts []string
}

func (c *countingSink) Put(name string, data []byte) error {
	c.puts = append(c.puts, name)
	return c.Sink.Put(name, data)
}

func shipperEngineConfig() stream.Config {
	return stream.Config{
		NumObjects: 4,
		Lambda1:    0.5,
		Lambda2:    1.0,
		Delta:      1e-5,
		ClaimWAL:   true,
	}
}

// newDurableServer opens a durable stream server over a fresh store.
func newDurableServer(t *testing.T, dir string, opts streamstore.Options) (*crowd.StreamServer, *streamstore.Store) {
	t.Helper()
	store, err := streamstore.OpenWith(dir, opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, err := crowd.NewStreamServer(crowd.StreamServerConfig{
		Name: "ship", Engine: shipperEngineConfig(), Persistence: store,
	})
	if err != nil {
		t.Fatalf("stream server: %v", err)
	}
	return srv, store
}

func submitN(t *testing.T, srv *crowd.StreamServer, users int, window int) {
	t.Helper()
	for u := 0; u < users; u++ {
		sub := crowd.Submission{
			ClientID: fmt.Sprintf("user-%03d", u),
			Claims: []crowd.Claim{
				{Object: u % 4, Value: float64(u + window)},
				{Object: (u + 1) % 4, Value: float64(u) / 3},
			},
		}
		if _, err := srv.Submit(sub); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

// TestShipAndRestore: a state directory shipped to a DirSink restores
// into a server whose next window matches the original's exactly —
// point-in-time restore from the archive alone.
func TestShipAndRestore(t *testing.T) {
	srv, store := newDurableServer(t, t.TempDir(), streamstore.Options{})
	defer func() {
		_ = srv.Close()
		_ = store.Close()
	}()
	replica := t.TempDir()
	sink, err := NewDirSink(replica)
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	shipper, err := NewShipper(store, sink, time.Hour, nil)
	if err != nil {
		t.Fatalf("shipper: %v", err)
	}

	// Two closed windows plus claims already in the open third window:
	// the restore must carry all of it (the open window's claims ride
	// the claim WAL).
	for w := 1; w <= 2; w++ {
		submitN(t, srv, 12, w)
		if _, err := srv.CloseWindow(); err != nil {
			t.Fatalf("close window %d: %v", w, err)
		}
	}
	submitN(t, srv, 8, 3)
	if err := shipper.SyncOnce(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	restored, restoredStore := newDurableServer(t, replica, streamstore.Options{})
	defer func() {
		_ = restored.Close()
		_ = restoredStore.Close()
	}()
	if got, want := restored.Engine().Window(), srv.Engine().Window(); got != want {
		t.Fatalf("restored at %d closed windows, want %d", got, want)
	}
	if got, want := restored.Engine().TotalClaims(), srv.Engine().TotalClaims(); got != want {
		t.Fatalf("restored TotalClaims = %d, want %d", got, want)
	}
	// Closing the open window on both must publish the same estimate:
	// the archive held every claim the original had.
	origRes, err := srv.CloseWindow()
	if err != nil {
		t.Fatalf("original close: %v", err)
	}
	restRes, err := restored.CloseWindow()
	if err != nil {
		t.Fatalf("restored close: %v", err)
	}
	if restRes.Window != origRes.Window {
		t.Fatalf("restored closed window %d, original %d", restRes.Window, origRes.Window)
	}
	for o := range origRes.Truths {
		if math.Abs(restRes.Truths[o]-origRes.Truths[o]) > 1e-12 {
			t.Fatalf("object %d: restored truth %v, original %v", o, restRes.Truths[o], origRes.Truths[o])
		}
	}
}

// TestShipperSkipsSealedSegments: sealed journal segments ship once;
// later passes re-ship only mutable files.
func TestShipperSkipsSealedSegments(t *testing.T) {
	// Tiny segments and no window closes (hence no snapshots, which
	// would compact sealed segments away): many charges roll several
	// sealed segments.
	srv, store := newDurableServer(t, t.TempDir(), streamstore.Options{SegmentBytes: 512})
	defer func() {
		_ = srv.Close()
		_ = store.Close()
	}()
	submitN(t, srv, 60, 1)

	dirSink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	sink := &countingSink{Sink: dirSink}
	shipper, err := NewShipper(store, sink, time.Hour, nil)
	if err != nil {
		t.Fatalf("shipper: %v", err)
	}
	if err := shipper.SyncOnce(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	firstWALs := walNames(sink.puts)
	if len(firstWALs) < 2 {
		t.Fatalf("expected several journal segments in first pass, shipped %v", sink.puts)
	}

	sink.puts = nil
	if err := shipper.SyncOnce(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	secondWALs := walNames(sink.puts)
	// Only the active (highest-numbered) segment may ship again.
	active := firstWALs[len(firstWALs)-1]
	for _, name := range secondWALs {
		if name != active {
			t.Fatalf("sealed segment %s re-shipped on an unchanged store (pass shipped %v)", name, sink.puts)
		}
	}
}

func walNames(puts []string) []string {
	var wals []string
	for _, name := range puts {
		if strings.HasSuffix(name, ".wal") {
			wals = append(wals, name)
		}
	}
	sort.Strings(wals)
	return wals
}

// TestDirSinkRefusesUnshippableNames: a sink writes only names the
// store could list, so no caller can turn the replica directory into an
// arbitrary file drop or write outside it.
func TestDirSinkRefusesUnshippableNames(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	for _, name := range []string{"evil.txt", "../" + streamstore.SnapshotFileName, "a/b", "a\\b", ""} {
		if err := sink.Put(name, []byte("x")); err == nil {
			t.Errorf("Put(%q) succeeded, want a refusal", name)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read sink dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("sink dir holds %d entries after refused puts, want none (first %q)", len(entries), entries[0].Name())
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), streamstore.SnapshotFileName)); !os.IsNotExist(err) {
		t.Fatalf("a refused put escaped the sink dir: stat err = %v", err)
	}
}

// TestDirSinkPutSurvivesCrash: a file Put returned for is on the
// replica's disk, whole, after a power cut — a new name and a replaced
// one — whatever the disk kept of what was never synced. Put fsyncs the
// directory after its rename; without that the lying disk drops the
// rename, and the replica loses the newest file it acknowledged.
func TestDirSinkPutSurvivesCrash(t *testing.T) {
	const dir = "/replica"
	segment := "journal-000000001.wal"
	for _, mode := range storefs.CrashModes {
		t.Run(mode.String(), func(t *testing.T) {
			disk := storefs.NewModel()
			if err := disk.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			sink := &DirSink{dir: dir, fs: disk}
			want := map[string][]byte{
				streamstore.SnapshotFileName: []byte("the second snapshot, longer than the first"),
				segment:                      []byte("a shipped segment prefix"),
			}
			for _, put := range []struct {
				name string
				data []byte
			}{
				{streamstore.SnapshotFileName, []byte("the first snapshot")},
				{streamstore.SnapshotFileName, want[streamstore.SnapshotFileName]},
				{segment, want[segment]},
			} {
				if err := sink.Put(put.name, put.data); err != nil {
					t.Fatalf("Put(%s): %v", put.name, err)
				}
			}
			disk.Crash(mode)
			for name, data := range want {
				if got, err := disk.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
					t.Errorf("%s after the crash = %q, %v; want %q", name, got, err, data)
				}
			}
		})
	}
}

// TestDirSinkConcurrentPuts: Puts of one name from several goroutines —
// two shipping passes overlapping, as Node.Shipper().SyncOnce beside the
// ticker allows — all succeed, and the file ends up as one of them,
// whole.
func TestDirSinkConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make(map[string]bool)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		data := strings.Repeat(fmt.Sprintf("pass %d;", g), 1+100*g)
		payloads[data] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := sink.Put(streamstore.SnapshotFileName, []byte(data)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(filepath.Join(dir, streamstore.SnapshotFileName))
	if err != nil || !payloads[string(got)] {
		t.Fatalf("after concurrent Puts the file holds %d bytes (%v), not one whole payload", len(got), err)
	}
}
