package cluster

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"pptd/internal/obs"
	"pptd/internal/streamstore"
	"pptd/internal/streamstore/storefs"
)

// Segment shipping: a background Shipper replicates a worker's durable
// state directory — sealed journal segments, the active segment's
// durable prefix, the user spill file, retained results, and the
// snapshot — to a Sink, in production a local directory (DirSink): an
// archive for point-in-time restore, or a mounted volume a standby node
// recovers from. Restoring is just opening a streamstore on the replica
// directory: the shipped files ARE the state directory.
//
// Correctness rests on two properties of the store's files. Sealed
// segments are immutable, so shipping one at its final size is final —
// it never needs to ship again. Everything else is either
// append-only with per-record CRCs (the active segment, whose shipped
// prefix is always a valid journal) or atomically replaced (snapshot,
// results, spill after compaction), so a whole-file copy is always
// internally consistent. The shipper Puts files in Shippable's listing
// order — segments before snapshot — so the sink never holds a snapshot
// whose journal suffix it is missing; a crash mid-pass leaves the sink
// at worst one consistent step behind.

// Sink is a shipping destination.
type Sink interface {
	// Have returns the sink's current files by base name and size.
	Have() (map[string]int64, error)
	// Put stores one file under its base name, replacing any previous
	// content atomically.
	Put(name string, data []byte) error
}

// DirSink ships into a local directory — an archive for point-in-time
// restore, or a directory a standby node will recover from.
type DirSink struct {
	dir string
	fs  storefs.FS
	// mu serializes Puts: concurrent shipping passes would otherwise
	// share a file's temp name.
	mu sync.Mutex
}

// NewDirSink creates the directory if needed and returns a sink over it.
func NewDirSink(dir string) (*DirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: create sink dir: %w", err)
	}
	return &DirSink{dir: dir, fs: storefs.OS{}}, nil
}

// Have implements Sink.
func (d *DirSink) Have() (map[string]int64, error) {
	entries, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	have := make(map[string]int64, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue // racing a concurrent replace; next pass catches up
		}
		if info.Mode().IsRegular() {
			have[e.Name()] = info.Size()
		}
	}
	return have, nil
}

// Put implements Sink through the store's own atomic replace
// (streamstore.WriteFileAtomic): temp file, fsync, rename, directory
// fsync. A reader (or a restore racing the shipper) never sees a
// half-written file, and a power loss on the replica's host never loses
// a rename Put returned for.
func (d *DirSink) Put(name string, data []byte) error {
	if !streamstore.ValidShippableName(name) {
		return fmt.Errorf("cluster: refusing to ship %q: not a shippable name", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return streamstore.WriteFileAtomic(d.fs, d.dir, name, data)
}

// Shipper replicates one store's durable state to a sink, either on
// demand (SyncOnce) or continuously on an interval (Start/Close). The
// shipper only ever adds or updates files at the sink — it never
// deletes, so an archive accumulates every point-in-time state the
// source passed through (segments the source compacted away just stop
// updating).
type Shipper struct {
	store    *streamstore.Store
	sink     Sink
	interval time.Duration

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	shippedFiles *obs.Counter
	shippedBytes *obs.Counter
	syncErrors   *obs.Counter
}

// NewShipper returns a shipper from store to sink. interval is the
// cadence for Start (SyncOnce works regardless); metrics may be nil.
func NewShipper(store *streamstore.Store, sink Sink, interval time.Duration, metrics *obs.Registry) (*Shipper, error) {
	if store == nil || sink == nil {
		return nil, fmt.Errorf("cluster: shipper needs a store and a sink")
	}
	if interval < 0 {
		return nil, fmt.Errorf("cluster: negative ship interval %v", interval)
	}
	s := &Shipper{store: store, sink: sink, interval: interval, stop: make(chan struct{})}
	if metrics != nil {
		s.shippedFiles = metrics.Counter("pptd_cluster_shipped_files_total",
			"Files shipped (created or updated) at the replication sink.")
		s.shippedBytes = metrics.Counter("pptd_cluster_shipped_bytes_total",
			"Bytes shipped to the replication sink.")
		s.syncErrors = metrics.Counter("pptd_cluster_ship_errors_total",
			"Shipping passes that failed (retried on the next interval).")
	}
	return s, nil
}

// SyncOnce runs one shipping pass: list the sink, list the store's
// shippable files, and Put — in listing order — every file the sink is
// missing or that changed. Sealed segments already present at their
// final size are skipped for good; mutable files (active segment,
// spill, retained results) re-ship whenever their durable size moved;
// the latest result, the cluster-close record and the snapshot re-ship
// on every pass even at an unchanged size, because all three are
// atomically rewritten (same size, different state, is possible) and
// the snapshot's listing position (last) makes it the pass's commit
// point.
func (s *Shipper) SyncOnce() error {
	err := s.syncOnce()
	if err != nil && s.syncErrors != nil {
		s.syncErrors.Inc()
	}
	return err
}

func (s *Shipper) syncOnce() error {
	have, err := s.sink.Have()
	if err != nil {
		return fmt.Errorf("cluster: list sink: %w", err)
	}
	files, err := s.store.Shippable()
	if err != nil {
		return fmt.Errorf("cluster: list shippable state: %w", err)
	}
	for _, f := range files {
		// Skip whatever the sink already holds at the listed size: final
		// for sealed segments (immutable), and "durable size unchanged"
		// for the other files — the active segment and the spill only
		// ever grow (or shrink on compaction), so an equal size means an
		// identical durable prefix. The latest result, the cluster-close
		// record and the snapshot are the exceptions: all are atomically
		// rewritten and can change state without changing size, and the
		// snapshot is the pass's commit point — they always re-ship.
		if size, ok := have[f.Name]; ok && size == f.Size && f.Name != streamstore.ResultFileName &&
			f.Name != streamstore.ClusterCloseFileName && f.Name != streamstore.SnapshotFileName {
			continue
		}
		data, err := s.store.ReadShippable(f.Name, f.Size)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // compacted away between listing and read
			}
			return fmt.Errorf("cluster: read %s: %w", f.Name, err)
		}
		if err := s.sink.Put(f.Name, data); err != nil {
			return fmt.Errorf("cluster: ship %s: %w", f.Name, err)
		}
		if s.shippedFiles != nil {
			s.shippedFiles.Inc()
			s.shippedBytes.Add(int64(len(data)))
		}
	}
	return nil
}

// Start ships continuously on the configured interval until Close. A
// failed pass is retried at the next tick.
func (s *Shipper) Start() {
	if s.interval <= 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(s.interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				_ = s.SyncOnce()
			}
		}
	}()
}

// Close stops the background loop and runs one final pass, so a
// graceful shutdown leaves the sink current.
func (s *Shipper) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	return s.SyncOnce()
}
