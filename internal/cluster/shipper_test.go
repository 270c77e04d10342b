package cluster

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pptd/internal/crowd"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
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
