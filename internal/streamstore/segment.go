package streamstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// The journal is a sequence of rolling segment files, journal-<seq>.wal,
// with seq ascending from 1 (zero-padded so lexical order is sequence
// order). Appends go only to the active segment — the highest sequence
// number — and once a flush pushes it past Options.SegmentBytes it is
// sealed: already fsync'd, never written again, and a fresh segment is
// created (its name made durable with a directory sync) for subsequent
// appends. Sealed segments are immutable, which is what makes compaction
// O(segments): a snapshot that covers a sealed segment entirely lets it
// be deleted outright, no bytes rewritten. The one partially-covered
// boundary segment is left intact and its covered prefix skipped on
// recovery using the snapshot's JournalPos marker.
//
// Legacy layouts: before segmentation the journal was one rewrite-on-
// compact file, ledger.journal, and before the binary record framing
// (journal.go) each segment held JSON lines. No deployment ever ran
// either, so Open reads neither — but it does not ignore them either: a
// directory holding ledger.journal, or a segment that starts like a JSON
// line, fails with ErrLegacyJournal before anything is repaired, because
// opening around the file (or truncating it as a torn tail) would hand
// every user in it their spent epsilon back.

// segmentInfo is the store's bookkeeping for one sealed segment.
type segmentInfo struct {
	seq  int64
	size int64
}

// end is the journal position just past the segment's last byte; a
// snapshot covers the whole segment iff its covered position is not
// before it.
func (g segmentInfo) end() JournalPos {
	return JournalPos{Seq: g.seq, Off: g.size}
}

// JournalPos identifies a point in the segmented journal: every byte of
// segments with sequence numbers below Seq, plus the first Off bytes of
// segment Seq, lie before it. The zero value is the start of the
// journal. Snapshots embed the position their export covers, so
// compaction can delete covered segments and recovery can skip the
// covered prefix of the boundary segment.
type JournalPos struct {
	Seq int64 `json:"seq"`
	Off int64 `json:"off"`
}

// Before reports whether p orders strictly before q.
func (p JournalPos) Before(q JournalPos) bool {
	return p.Seq < q.Seq || (p.Seq == q.Seq && p.Off < q.Off)
}

func segmentFileName(seq int64) string {
	return fmt.Sprintf("journal-%09d.wal", seq)
}

func (s *Store) segmentPath(seq int64) string {
	return filepath.Join(s.dir, segmentFileName(seq))
}

// parseSegmentName parses journal-<seq>.wal back to its sequence
// number, reporting false for other files. Only exact round-trips
// count: accepting e.g. an operator's journal-000000003.wal.bak, or an
// unpadded journal-3.wal, as segment 3 would register a duplicate
// sequence — double replay on recovery, and compaction deleting the
// live file.
func parseSegmentName(name string) (int64, bool) {
	digits, _ := strings.CutPrefix(name, "journal-")
	seq, err := strconv.ParseInt(strings.TrimSuffix(digits, ".wal"), 10, 64)
	if err != nil || seq <= 0 || name != segmentFileName(seq) {
		return 0, false
	}
	return seq, true
}

// segmentBytesLocked returns the effective segment size cap.
func (s *Store) segmentBytesLocked() int64 {
	if s.opts.SegmentBytes > 0 {
		return s.opts.SegmentBytes
	}
	return defaultSegmentBytes
}

// journalBytesLocked returns the journal's total live size across every
// segment. Callers must hold s.mu.
func (s *Store) journalBytesLocked() int64 {
	total := s.activeSize
	for _, seg := range s.sealed {
		total += seg.size
	}
	return total
}

// openJournalLocked brings the segmented journal up at Open time: it
// refuses a directory holding a legacy single-file journal, scans the
// directory for segments (refusing a JSON-era segment, snapshot or
// cluster-close record it meets on the way — ErrLegacyJournal,
// ErrLegacySnapshot), opens the highest sequence as the active segment
// (creating segment 1 on a fresh directory), and repairs any torn tail
// a crash mid-append left in it. Sealed segments are never written — a
// roll only happens after a successful fsync, so a torn tail can only
// live in the last segment.
func (s *Store) openJournalLocked() error {
	legacy := filepath.Join(s.dir, legacyJournalName)
	if _, err := s.fs.Stat(legacy); err == nil {
		return fmt.Errorf("%w: %s", ErrLegacyJournal, legacy)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("streamstore: stat legacy journal: %w", err)
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("streamstore: scan state dir: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if name := e.Name(); name == snapshotName || name == clusterCloseName {
			if err := s.refuseLegacyStateFileLocked(name); err != nil {
				return err
			}
			continue
		}
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		fi, err := s.fs.Stat(path)
		if err != nil {
			return fmt.Errorf("streamstore: stat segment %s: %w", e.Name(), err)
		}
		if fi.Size() >= legacyHeadLen {
			if err := s.refuseLegacySegmentLocked(path); err != nil {
				return err
			}
		}
		segs = append(segs, segmentInfo{seq: seq, size: fi.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })

	activeSeq := int64(1)
	created := len(segs) == 0
	if !created {
		activeSeq = segs[len(segs)-1].seq
		segs = segs[:len(segs)-1]
	}
	f, err := s.fs.OpenFile(s.segmentPath(activeSeq), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("streamstore: open journal segment: %w", err)
	}
	if created {
		if err := s.fs.SyncDir(s.dir); err != nil {
			_ = f.Close()
			return fmt.Errorf("streamstore: sync state dir: %w", err)
		}
	}
	s.sealed = segs
	s.active = f
	s.activeSeq = activeSeq
	if err := s.repairActiveLocked(); err != nil {
		_ = f.Close()
		s.active = nil
		return err
	}
	return nil
}

// refuseLegacySegmentLocked fails with ErrLegacyJournal, naming the
// file, when the segment at path starts like its JSON-era form
// (legacyRecordFile). It only reads the segment's first bytes.
func (s *Store) refuseLegacySegmentLocked(path string) error {
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("streamstore: open journal segment: %w", err)
	}
	defer func() { _ = f.Close() }()
	var head [legacyHeadLen]byte
	if n, err := f.ReadAt(head[:], 0); n < len(head) {
		return fmt.Errorf("streamstore: read journal segment %s: %w", filepath.Base(path), err)
	}
	if legacyRecordFile(head[:]) {
		return fmt.Errorf("%w: %s", ErrLegacyJournal, path)
	}
	return nil
}

// repairActiveLocked scans the active segment for its longest valid
// prefix and truncates anything after it (a torn tail from a crashed
// append, and the zeros of a preallocated tail with it), so subsequent
// appends land on a record boundary and allocate afresh. The scan
// streams the segment in chunks — a store whose active segment grew
// huge (say, a raised SegmentBytes or a roll that kept failing) must
// not need segment-sized memory just to boot. Callers must hold s.mu.
func (s *Store) repairActiveLocked() error {
	fi, err := s.active.Stat()
	if err != nil {
		return fmt.Errorf("streamstore: stat journal segment: %w", err)
	}
	valid, err := scanJournalFile(s.active, fi.Size(), fi.Size(), nil)
	if err != nil {
		return err
	}
	if fi.Size() > valid {
		if err := s.active.Truncate(valid); err != nil {
			return fmt.Errorf("streamstore: repair journal tail: %w", err)
		}
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("streamstore: sync repaired journal: %w", err)
		}
	}
	s.activeSize, s.allocEnd = valid, valid
	return nil
}

// readSegmentLocked reads one whole segment through its open handle.
func (s *Store) readSegmentLocked(f storefs.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("streamstore: stat journal segment: %w", err)
	}
	data := make([]byte, fi.Size())
	n, err := f.ReadAt(data, 0)
	if int64(n) != fi.Size() && err != nil {
		return nil, fmt.Errorf("streamstore: read journal segment: %w", err)
	}
	return data[:n], nil
}

// rollSegmentLocked seals the active segment (it is already fsync'd —
// rolls only happen after a successful flush) and opens the next
// sequence number, syncing the directory so the new name is durable.
// Failures leave the current segment active past its size cap and are
// returned for the caller to decide: the append path ignores them (the
// batch is already durable, and failing an acknowledged-able append
// over a housekeeping error would roll back charges that are safely on
// disk; the next flush simply retries), while compaction propagates
// them so a state directory that can no longer create files surfaces
// as a snapshot error instead of unbounded silent journal growth.
//
// The sealed size is the records' end, never the file's: a size-cap
// roll comes only once the records reach the cap, and preallocation
// stops at the cap (or at the end of the flush that crosses it), so
// that file has no zero tail to trim; a compaction roll's file keeps
// its zeros, but the same pass deletes it, and if a crash keeps it
// anyway replay stops at the zero header. Either way sealing costs no
// truncate and no fsync. Callers must hold s.mu.
func (s *Store) rollSegmentLocked() error {
	next := s.activeSeq + 1
	f, err := s.fs.OpenFile(s.segmentPath(next), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("streamstore: create journal segment %d: %w", next, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(s.segmentPath(next))
		return fmt.Errorf("streamstore: sync state dir: %w", err)
	}
	old := s.active
	s.sealed = append(s.sealed, segmentInfo{seq: s.activeSeq, size: s.activeSize})
	s.active = f
	s.activeSeq = next
	s.activeSize, s.allocEnd = 0, 0
	s.segmentsSealed++
	_ = old.Close()
	return nil
}

// compactJournalLocked applies a snapshot's coverage to the segmented
// journal: every sealed segment at or before covered is deleted whole —
// O(segments), no surviving byte rewritten — and the partially-covered
// boundary segment (if any) is left intact, its covered prefix skipped
// on recovery via the JournalPos marker the snapshot carries. When the
// coverage reaches the active segment's durable tail, the active
// segment is rolled and deleted too, so a quiet store snapshotting
// every close keeps exactly one small live segment. If any step is
// interrupted, leftover covered segments are harmless: recovery replay
// is idempotent and the marker skips them; the next compaction deletes
// them. Callers must hold s.mu.
func (s *Store) compactJournalLocked(covered JournalPos) error {
	// The whole journal covered: seal the active segment and let the
	// sealed-segment pass below delete it with the rest. A roll failure
	// here must not stay silent — it means the journal can no longer be
	// reclaimed — so it surfaces as the snapshot's error (the snapshot
	// itself is already durable; recovery is unaffected).
	if covered.Seq == s.activeSeq && covered.Off >= s.activeSize && s.activeSize > 0 {
		if err := s.rollSegmentLocked(); err != nil {
			return err
		}
	}
	kept := s.sealed[:0]
	var firstErr error
	for _, seg := range s.sealed {
		if !covered.Before(seg.end()) {
			if err := s.fs.Remove(s.segmentPath(seg.seq)); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("streamstore: delete covered segment %d: %w", seg.seq, err)
				}
				kept = append(kept, seg)
				continue
			}
			s.segmentsDeleted++
			continue
		}
		kept = append(kept, seg)
	}
	s.sealed = kept
	if firstErr != nil {
		return firstErr
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("streamstore: sync state dir: %w", err)
	}
	return nil
}

// readJournalLocked reads every journal record past covered, in segment
// order: sealed segments first (skipping those the snapshot covers
// entirely and the covered prefix of the boundary segment), then the
// active segment's durable prefix. Each segment contributes the longest
// valid prefix of its bytes — the per-segment CRC torn-tail rule — so
// damage in one segment never hides records in another. Segments are
// scanned in chunks, never buffered whole (see scanJournalFile).
// Callers must hold s.mu.
func (s *Store) readJournalLocked(covered JournalPos) ([]stream.ChargeRecord, error) {
	var recs []stream.ChargeRecord
	emit := func(rec stream.ChargeRecord) { recs = append(recs, rec) }
	for _, seg := range s.sealed {
		if !covered.Before(seg.end()) {
			continue
		}
		var skip int64
		if seg.seq == covered.Seq {
			skip = covered.Off
		}
		if err := s.scanSealedSegment(seg, skip, emit); err != nil {
			return nil, err
		}
	}
	fi, err := s.active.Stat()
	if err != nil {
		return nil, fmt.Errorf("streamstore: stat journal segment: %w", err)
	}
	var skip int64
	if s.activeSeq == covered.Seq {
		skip = covered.Off
	}
	if _, err := scanJournalFile(s.active, fi.Size(), skip, emit); err != nil {
		return nil, err
	}
	return recs, nil
}

// scanSealedSegment opens one sealed segment read-only and streams its
// records past skip into emit.
func (s *Store) scanSealedSegment(seg segmentInfo, skip int64, emit func(stream.ChargeRecord)) error {
	f, err := s.fs.OpenFile(s.segmentPath(seg.seq), os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("streamstore: open journal segment %d: %w", seg.seq, err)
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("streamstore: stat journal segment %d: %w", seg.seq, err)
	}
	if _, err := scanJournalFile(f, fi.Size(), skip, emit); err != nil {
		return fmt.Errorf("streamstore: read journal segment %d: %w", seg.seq, err)
	}
	return nil
}
