package streamstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"time"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// Journal line format: one charge record per line,
//
//	crc32hex SP json-payload LF
//
// where crc32hex is the IEEE CRC-32 of the payload in fixed-width lower
// hex. The checksum plus the trailing newline make torn tails
// unambiguous: a crashed append leaves either a complete valid line or a
// detectable partial one, never a silently-wrong record. The batch WAL
// (batch.go) shares the format and this pair of functions.
const journalCRCLen = 8

// appendCRCLine appends payload to dst as one line of that format.
func appendCRCLine(dst, payload []byte) []byte {
	n := len(dst)
	dst = append(slices.Grow(dst, journalCRCLen+2+len(payload)), "00000000 "...)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	hex.Encode(dst[n:], sum[:])
	return append(append(dst, payload...), '\n')
}

// splitCRCLine returns the payload of one line (without its newline),
// and false when the checksum field is malformed or does not match.
func splitCRCLine(line []byte) ([]byte, bool) {
	if len(line) < journalCRCLen+2 || line[journalCRCLen] != ' ' {
		return nil, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:journalCRCLen]); err != nil {
		return nil, false
	}
	payload := line[journalCRCLen+1:]
	return payload, crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(sum[:])
}

// encodeChargeLine renders one charge record in the journal line
// format. Shared by AppendCharge and the fuzz seed corpus.
func encodeChargeLine(rec stream.ChargeRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("streamstore: encode charge: %w", err)
	}
	return appendCRCLine(nil, payload), nil
}

// commitBatch is one group-commit unit: the concatenated journal lines
// of every append that joined it, flushed with a single write+fsync by
// its leader. Followers block on done and share err. The buffer is only
// mutated under commitMu while the batch is pending; the leader reads
// it after sealing (removing it from Store.pending under commitMu), so
// no append can race the flush.
type commitBatch struct {
	buf  []byte
	n    int
	done chan struct{} // closed by the leader after the sync (or failure)
	err  error
}

// commit hands one encoded journal line to the group-commit machinery
// and returns once it is durable (or failed). The first appender to
// find no pending batch becomes the leader: it opens a batch and —
// crucially — keeps it open while it waits its turn at the disk behind
// an in-flight sync, snapshot, or compaction. Appends arriving in that
// window join as followers and ride the leader's single write+fsync,
// which is what makes durable ingest throughput scale with concurrency
// instead of paying one serialized fsync per submission. A batch that
// reaches Options.MaxBatch seals itself and the next append starts a
// new one.
func (s *Store) commit(line []byte) error {
	maxBatch := s.opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}

	s.commitMu.Lock()
	if b := s.pending; b != nil {
		// Follower: ride the open batch and wait for its leader's sync.
		b.buf = append(b.buf, line...)
		b.n++
		if b.n >= maxBatch {
			s.pending = nil
		}
		s.commitMu.Unlock()
		<-b.done
		return b.err
	}
	b := &commitBatch{done: make(chan struct{})}
	b.buf = append(b.buf, line...)
	b.n = 1
	shared := b.n < maxBatch // MaxBatch 1: solo batch, plain per-append fsync
	if shared {
		s.pending = b
	}
	s.commitMu.Unlock()

	if shared {
		// Give every appender already in flight one scheduling quantum
		// to join the open batch. Waiting on s.mu below achieves the
		// same thing while an earlier sync holds the disk, but not
		// reliably on a single-P runtime: a goroutine blocked in
		// fsync(2) only releases its P when sysmon notices, so without
		// this yield concurrent appenders may never run mid-sync and
		// every batch degenerates to one record. A yield costs well
		// under a microsecond; the fsync it amortizes costs tens to
		// hundreds.
		runtime.Gosched()
	}
	s.mu.Lock()
	if shared {
		// Seal: late arrivals start the next batch. Acquiring commitMu
		// here also orders every follower's buffer append before the
		// flush below.
		s.commitMu.Lock()
		if s.pending == b {
			s.pending = nil
		}
		s.commitMu.Unlock()
	}
	if s.closed {
		s.mu.Unlock()
		b.err = ErrClosed
		close(b.done)
		return b.err
	}
	b.err = s.flushLocked(b.buf, b.n)
	s.mu.Unlock()
	close(b.done)
	return b.err
}

// flushLocked appends one group-commit batch of n records at the active
// segment's durable tail with a single write and a single fsync,
// recording the batch size and flush latency in the stats histograms.
// On any failure it truncates the segment back to the last known good
// size so a partial batch cannot poison later appends — every
// submission in the batch then fails and rolls its in-memory charge
// back. After a successful flush, an active segment that has outgrown
// Options.SegmentBytes is sealed and a fresh segment opened (see
// rollSegmentLocked). Callers must hold s.mu.
func (s *Store) flushLocked(buf []byte, n int) error {
	start := time.Now()
	s.preallocateLocked(s.activeSize + int64(len(buf)))
	if _, err := s.active.WriteAt(buf, s.activeSize); err != nil {
		s.rewindJournalLocked()
		return fmt.Errorf("streamstore: append charge batch: %w", err)
	}
	if err := s.active.Sync(); err != nil {
		s.rewindJournalLocked()
		return fmt.Errorf("streamstore: sync journal: %w", err)
	}
	s.journalSyncs++
	s.journalAppends += int64(n)
	s.activeSize += int64(len(buf))
	s.batchSizes.Observe(float64(n))
	s.flushLatency.Observe(time.Since(start).Seconds())
	if s.activeSize >= s.segmentBytesLocked() {
		// Best-effort by design: the batch is durable, so a failed roll
		// must not fail acknowledged appends; see rollSegmentLocked.
		_ = s.rollSegmentLocked()
	}
	return nil
}

// journalAllocChunk is how far ahead of its records the active segment
// is allocated, capped at the segment size cap. A write inside already
// allocated space leaves the file's size alone, so its fsync commits
// the filesystem's own journal only when the write first touches a new
// block, instead of on every append that grows the file. The cost is
// that a segment's tail reads as zeros until records fill it: every
// reader stops at the first NUL, which no record line contains (the
// checksum is hex, the payload JSON).
const journalAllocChunk = 1 << 20

// preallocateLocked extends the active segment so that a flush ending
// at end writes into allocated space: one more journalAllocChunk, never
// past the segment cap unless the flush itself crosses it. Allocation
// is lazy — a segment that is never flushed to is never extended — and
// best-effort: its fsync is the flush's own, and on the first failure
// (a platform or filesystem without fallocate, or any error) the store
// goes on with plain appends. Callers must hold s.mu.
func (s *Store) preallocateLocked(end int64) {
	if end <= s.allocEnd || s.allocFailed {
		return
	}
	target := max(end, min(s.allocEnd+journalAllocChunk, s.segmentBytesLocked()))
	if err := storefs.Allocate(s.active, s.allocEnd, target-s.allocEnd); err != nil {
		s.allocFailed = true
		return
	}
	s.allocEnd = target
}

// rewindJournalLocked best-effort truncates the active segment back to
// the last durable size after a failed append; the preallocated tail
// goes with the partial batch, and the next flush allocates again.
func (s *Store) rewindJournalLocked() {
	_ = s.active.Truncate(s.activeSize)
	s.allocEnd = s.activeSize
}

// parseJournal decodes the longest valid prefix of one segment's bytes,
// returning its records and byte length. Parsing stops at the first
// incomplete line (no trailing newline — a torn write), malformed
// checksum prefix, checksum mismatch, or undecodable payload.
func parseJournal(data []byte) ([]stream.ChargeRecord, int64) {
	return parseJournalAfter(data, 0)
}

// parseJournalAfter is parseJournal restricted to the records past the
// byte offset skip: the whole prefix is still validated (valid counts
// it), but records whose line ends at or before skip — the part of a
// boundary segment a snapshot already covers — are not returned. skip
// always falls on a line boundary in practice (it is a durable size the
// store captured itself); a skip inside a line simply keeps that line.
func parseJournalAfter(data []byte, skip int64) ([]stream.ChargeRecord, int64) {
	var recs []stream.ChargeRecord
	var valid int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: the final append never completed
		}
		line := data[off : off+nl]
		rec, ok := parseJournalLine(line)
		if !ok {
			break
		}
		off += nl + 1
		valid = int64(off)
		if valid > skip {
			recs = append(recs, rec)
		}
	}
	return recs, valid
}

// journalScanChunk is the read granularity of the streaming recovery
// scan: large enough to amortize syscalls, small enough that recovering
// a multi-gigabyte segment never buffers more than one chunk plus one
// record.
const journalScanChunk = 256 << 10

// scanJournalFile is parseJournalAfter over a file instead of a byte
// slice: it scans the first size bytes of f in journalScanChunk reads,
// carrying only the current incomplete line between reads, and stops at
// the first invalid or torn line, or at the first NUL — the start of a
// preallocated tail (journalAllocChunk), which is never read further or
// carried. Memory is O(chunk + longest record), not O(segment) — the
// active segment of a long-lived store can dwarf RAM and recovery must
// still come up. Records whose line ends past skip are passed to emit
// (which may be nil when only the valid length matters, e.g. torn-tail
// repair); the returned length counts every valid line, skipped or not,
// exactly as parseJournalAfter does.
func scanJournalFile(f storefs.File, size, skip int64, emit func(stream.ChargeRecord)) (int64, error) {
	var (
		carry   []byte
		chunk   = make([]byte, journalScanChunk)
		fileOff int64
		valid   int64
	)
	for {
		nl := bytes.IndexByte(carry, '\n')
		for nl < 0 && fileOff < size {
			n := len(chunk)
			if rem := size - fileOff; rem < int64(n) {
				n = int(rem)
			}
			m, err := f.ReadAt(chunk[:n], fileOff)
			if m < n && err != nil {
				return valid, fmt.Errorf("streamstore: read journal segment: %w", err)
			}
			fileOff += int64(m)
			if z := bytes.IndexByte(chunk[:m], 0); z >= 0 {
				m, size = z, fileOff
			}
			carry = append(carry, chunk[:m]...)
			nl = bytes.IndexByte(carry, '\n')
		}
		if nl < 0 {
			// No newline left anywhere in the file: a torn tail (or a clean
			// end exactly on a boundary, in which case carry is empty).
			return valid, nil
		}
		rec, ok := parseJournalLine(carry[:nl])
		if !ok {
			return valid, nil
		}
		carry = carry[nl+1:]
		valid += int64(nl + 1)
		if valid > skip && emit != nil {
			emit(rec)
		}
	}
}

func parseJournalLine(line []byte) (stream.ChargeRecord, bool) {
	var rec stream.ChargeRecord
	payload, ok := splitCRCLine(line)
	if !ok || json.Unmarshal(payload, &rec) != nil {
		return rec, false
	}
	return rec, true
}
