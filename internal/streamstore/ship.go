package streamstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Segment-shipping support: the read-side API behind internal/cluster's
// background shipper. Sealed journal segments are immutable, so a
// replica that has a segment at its final size never needs it again;
// the active segment ships as its durable prefix (append-only with
// per-record CRCs, so a prefix is always a valid journal — opening the
// replica repairs any torn tail past it). Snapshots, the last published
// results, and the user spill file ship whole: each is replaced (or
// appended) atomically, so a point-in-time copy is always internally
// consistent.
//
// Ordering is the shipper's durability contract: Shippable lists the
// journal segments BEFORE the snapshot, and a shipper must Put files in
// listing order within one sync pass. A snapshot compacts away the
// sealed segments it covers; shipping the snapshot last guarantees the
// destination never holds a snapshot whose journal suffix it is still
// missing. (The reverse — segments newer than the shipped snapshot —
// just means the restored node replays a little more.)

// SnapshotFileName is the engine snapshot's base name inside a state
// directory — exported for shippers, which must treat it as the sync
// pass's commit point: it ships last and re-ships even when the sink
// already holds a same-size copy, because an atomic rewrite can leave
// the size unchanged while the state moved.
const SnapshotFileName = snapshotName

// ResultFileName is the latest published result's base name inside a
// state directory — exported for shippers, which must re-ship it even
// when the sink holds a same-size copy: it is atomically rewritten at
// every window close, and two windows' results can encode to the same
// length.
const ResultFileName = resultName

// ShippableFile describes one file of the durable state directory a
// shipper replicates.
type ShippableFile struct {
	// Name is the file's base name inside the state directory.
	Name string
	// Size is the durable byte count to ship: the whole file, except for
	// the active journal segment where it is the fsync'd prefix.
	Size int64
}

// Shippable enumerates the current durable state as shippable files, in
// the order a shipper must replicate them: sealed journal segments
// (ascending), the active segment's durable prefix, the user spill
// file, retained window results, the latest result, and the snapshot
// last. Files of size zero are omitted.
func (s *Store) Shippable() ([]ShippableFile, error) {
	s.mu.Lock()
	if s.active == nil {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var out []ShippableFile
	for _, seg := range s.sealed {
		if seg.size > 0 {
			out = append(out, ShippableFile{Name: segmentFileName(seg.seq), Size: seg.size})
		}
	}
	activeName := segmentFileName(s.activeSeq)
	activeSize := s.activeSize
	s.mu.Unlock()
	if activeSize > 0 {
		out = append(out, ShippableFile{Name: activeName, Size: activeSize})
	}

	s.spillMu.Lock()
	spillSize := s.spillSize
	s.spillMu.Unlock()
	if spillSize > 0 {
		out = append(out, ShippableFile{Name: spillName, Size: spillSize})
	}

	// Retained history results, the latest result, the cluster-close
	// record, then the snapshot: all atomically replaced, shipped whole
	// at their current size.
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("streamstore: list state dir: %w", err)
	}
	var history []string
	for _, e := range entries {
		if _, ok := resultHistoryWindow(e.Name()); ok {
			history = append(history, e.Name())
		}
	}
	sort.Strings(history)
	for _, name := range append(history, resultName, clusterCloseName, snapshotName) {
		fi, err := s.fs.Stat(filepath.Join(s.dir, name))
		if err != nil || fi.Size() == 0 {
			continue // never written yet (or pruned between list and stat)
		}
		out = append(out, ShippableFile{Name: name, Size: fi.Size()})
	}
	return out, nil
}

// ValidShippableName reports whether name is a file Shippable can
// list — exported for a shipping sink, which must refuse to write any
// other name into its replica directory.
func ValidShippableName(name string) bool { return shippableName(name) }

// shippableName reports whether name is a file Shippable can list — the
// only names ReadShippable (and, transitively, a shipping sink) will
// touch. Anything else, path separators included, is rejected.
func shippableName(name string) bool {
	if name == "" || strings.ContainsAny(name, "/\\") || name != filepath.Base(name) {
		return false
	}
	if name == snapshotName || name == resultName || name == spillName || name == clusterCloseName {
		return true
	}
	if _, ok := resultHistoryWindow(name); ok {
		return true
	}
	if _, ok := parseSegmentName(name); ok {
		return true
	}
	return false
}

// ReadShippable reads one file from the state directory as enumerated
// by Shippable. For journal segments only the first size bytes are read
// — the durable prefix the listing promised, even if the active segment
// has grown since, and never its preallocated zeros — and a segment
// shorter than size (compacted away and the name reused is impossible;
// truncation is not) is an error. Other files ship whole at their
// current content, size notwithstanding: they are atomically replaced,
// so the current content is always a consistent, newer-or-equal
// version.
func (s *Store) ReadShippable(name string, size int64) ([]byte, error) {
	if !shippableName(name) {
		return nil, fmt.Errorf("streamstore: %q is not a shippable file", name)
	}
	path := filepath.Join(s.dir, name)
	if _, isSegment := parseSegmentName(name); !isSegment {
		return s.fs.ReadFile(path)
	}
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	data := make([]byte, size)
	if n, err := f.ReadAt(data, 0); n < len(data) {
		return nil, fmt.Errorf("streamstore: segment %s holds %d bytes, want durable prefix of %d: %v",
			name, n, size, err)
	}
	return data, nil
}
