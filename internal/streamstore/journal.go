package streamstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"time"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// Record framing, shared by every append-only file the store keeps —
// the journal segments and users.spill. Each record is one frame,
//
//	u32 LE payload length | u32 LE CRC-32 (IEEE) of the payload | payload
//
// where a journal payload is one stream.ChargeRecord in stream's binary
// record encoding (stream.AppendChargeRecord), and a users.spill payload
// is one JSON stream.UserSpill. A reader keeps the longest prefix
// of whole, intact records. The first record whose header is short, whose
// length runs past the file, whose CRC does not match or whose payload
// does not decode is the torn tail of a crashed append, and so is
// everything after it. A header of length 0 ends the records as well: no
// payload is empty, and it is where the zeros of a preallocated tail
// begin (journalAllocChunk).
const (
	recordHeaderLen = 8
	// maxRecordPayload bounds a payload. It keeps the fourth byte of any
	// header at or below 0x04, never a hex digit, so no file of records
	// starts the way its JSON-era form did (legacyRecordFile).
	maxRecordPayload = 64 << 20
	// legacyHeadLen is how much of a file legacyRecordFile looks at.
	legacyHeadLen = 9
)

// emptyRecordHeader is the placeholder an encoder appends before the
// payload; sealRecord fills it in.
var emptyRecordHeader [recordHeaderLen]byte

// sealRecord fills in the header of the record that starts at
// dst[start:], its payload being the rest of dst. A payload over
// maxRecordPayload is refused and dst comes back cut to start: no reader
// would accept that record, so it must never be acknowledged.
func sealRecord(dst []byte, start int) ([]byte, error) {
	payload := dst[start+recordHeaderLen:]
	if len(payload) > maxRecordPayload {
		return dst[:start], fmt.Errorf("streamstore: %d-byte record exceeds the %d-byte bound", len(payload), maxRecordPayload)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// appendRecord appends payload to dst as one record.
func appendRecord(dst, payload []byte) ([]byte, error) {
	start := len(dst)
	return sealRecord(append(append(dst, emptyRecordHeader[:]...), payload...), start)
}

// appendChargeRecord appends rec to dst as one journal record, encoding
// it in place. Shared by AppendCharge and the format tests.
func appendChargeRecord(dst []byte, rec stream.ChargeRecord) ([]byte, error) {
	start := len(dst)
	return sealRecord(stream.AppendChargeRecord(append(dst, emptyRecordHeader[:]...), rec), start)
}

// recordLen returns the length of the whole record whose header starts
// hdr, or 0 when the header ends the records: a zero length, or one over
// maxRecordPayload.
func recordLen(hdr []byte) int {
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxRecordPayload {
		return 0
	}
	return recordHeaderLen + int(n)
}

// splitRecord returns the payload of the record at the front of data and
// the record's whole length, or n == 0 when data does not start with an
// intact record: a short header, a header that ends the records, a length
// past the end of data, or a CRC mismatch.
func splitRecord(data []byte) (payload []byte, n int) {
	if len(data) < recordHeaderLen {
		return nil, 0
	}
	if n = recordLen(data); n == 0 || n > len(data) {
		return nil, 0
	}
	payload = data[recordHeaderLen:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0
	}
	return payload, n
}

// eachRecord calls fn with the payload and offset of every record in
// data's longest valid prefix, in order, and returns the prefix's length.
// fn reports false for a payload that does not decode, which ends the
// prefix before its record.
func eachRecord(data []byte, fn func(payload []byte, off int) bool) int64 {
	off := 0
	for {
		payload, n := splitRecord(data[off:])
		if n == 0 || !fn(payload, off) {
			return int64(off)
		}
		off += n
	}
}

// legacyRecordFile reports whether head, the first bytes of a journal
// segment or users.spill, is the start of the file's JSON-era
// form: one "crc32hex SP json LF" line per record, so eight lower-case hex
// digits and a space. Nothing reads that form any more, and a reader
// treating it as a torn tail at offset 0 would truncate it away — handing
// every user in it their spent epsilon back — so Open refuses such a file
// (ErrLegacyJournal) before anything repairs it. No binary file matches:
// see maxRecordPayload.
func legacyRecordFile(head []byte) bool {
	if len(head) < legacyHeadLen || head[legacyHeadLen-1] != ' ' {
		return false
	}
	for _, c := range head[:legacyHeadLen-1] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// commitBatch is one group-commit unit: the concatenated journal records
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

// commit encodes one charge record into the group-commit machinery's
// open batch and returns once it is durable (or failed). The first appender to
// find no pending batch becomes the leader: it opens a batch and —
// crucially — keeps it open while it waits its turn at the disk behind
// an in-flight sync, snapshot, or compaction. Appends arriving in that
// window join as followers and ride the leader's single write+fsync,
// which is what makes durable ingest throughput scale with concurrency
// instead of paying one serialized fsync per submission. A batch that
// reaches Options.MaxBatch seals itself and the next append starts a
// new one.
func (s *Store) commit(rec stream.ChargeRecord) error {
	maxBatch := s.opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}

	s.commitMu.Lock()
	if b := s.pending; b != nil {
		// Follower: ride the open batch and wait for its leader's sync.
		var err error
		if b.buf, err = appendChargeRecord(b.buf, rec); err != nil {
			s.commitMu.Unlock()
			return err
		}
		b.n++
		if b.n >= maxBatch {
			s.pending = nil
		}
		s.commitMu.Unlock()
		<-b.done
		return b.err
	}
	// 64 + user + 18 per claim bounds one encoded record: the leader's own
	// never regrows the buffer.
	buf, err := appendChargeRecord(make([]byte, 0, 64+len(rec.User)+18*len(rec.Claims)), rec)
	if err != nil {
		s.commitMu.Unlock()
		return err
	}
	b := &commitBatch{buf: buf, n: 1, done: make(chan struct{})}
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
// reader stops at the first record header of length 0.
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
// returning its records and byte length (see the record framing above).
func parseJournal(data []byte) ([]stream.ChargeRecord, int64) {
	return parseJournalAfter(data, 0)
}

// parseJournalAfter is parseJournal restricted to the records past the
// byte offset skip: the whole prefix is still validated (valid counts
// it), but records that end at or before skip — the part of a boundary
// segment a snapshot already covers — are not returned. skip always
// falls on a record boundary in practice (it is a durable size the store
// captured itself); a skip inside a record simply keeps that record.
func parseJournalAfter(data []byte, skip int64) ([]stream.ChargeRecord, int64) {
	var recs []stream.ChargeRecord
	valid := eachRecord(data, func(payload []byte, off int) bool {
		rec, err := stream.DecodeChargeRecord(payload)
		if err != nil {
			return false
		}
		if int64(off+recordHeaderLen+len(payload)) > skip {
			recs = append(recs, rec)
		}
		return true
	})
	return recs, valid
}

// journalScanChunk is the read granularity of the streaming recovery
// scan: large enough to amortize syscalls, small enough that recovering
// a multi-gigabyte segment never buffers more than one chunk plus one
// record.
const journalScanChunk = 256 << 10

// scanJournalFile is parseJournalAfter over a file instead of a byte
// slice: it scans the first size bytes of f in journalScanChunk reads,
// carrying only the current incomplete record between reads, and stops at
// the first torn record or at a header of length 0 — the start of a
// preallocated tail (journalAllocChunk), which is never read further or
// carried. A record whose length runs past size is torn without being
// read. Memory is O(chunk + longest record), not O(segment) — the
// active segment of a long-lived store can dwarf RAM and recovery must
// still come up. Records that end past skip are passed to emit (which
// may be nil when only the valid length matters, e.g. torn-tail
// repair); the returned length counts every valid record, skipped or
// not, exactly as parseJournalAfter does.
func scanJournalFile(f storefs.File, size, skip int64, emit func(stream.ChargeRecord)) (int64, error) {
	var (
		buf   = make([]byte, 0, journalScanChunk)
		off   int   // buf[off:] is not parsed yet; it starts at file offset valid
		valid int64 // end of the valid prefix
		end   int64 // file offset just past buf
	)
	// load makes n unparsed bytes available, reading whole chunks, and
	// reports false when the file ends before them.
	load := func(n int) (bool, error) {
		have := len(buf) - off
		if have >= n {
			return true, nil
		}
		if int64(n-have) > size-end {
			return false, nil
		}
		if cap(buf) < n {
			buf = append(make([]byte, 0, n), buf[off:]...)
		} else {
			buf = buf[:copy(buf, buf[off:])]
		}
		off = 0
		for len(buf) < n {
			want := int(min(int64(cap(buf)-len(buf)), size-end))
			got, err := f.ReadAt(buf[len(buf):len(buf)+want], end)
			buf, end = buf[:len(buf)+got], end+int64(got)
			if got < want && err != nil {
				return false, fmt.Errorf("streamstore: read journal segment: %w", err)
			}
		}
		return true, nil
	}
	for {
		ok, err := load(recordHeaderLen)
		if !ok || err != nil {
			return valid, err
		}
		n := recordLen(buf[off:])
		if n == 0 {
			return valid, nil
		}
		if ok, err := load(n); !ok || err != nil {
			return valid, err
		}
		payload, n := splitRecord(buf[off : off+n])
		if n == 0 {
			return valid, nil
		}
		rec, err := stream.DecodeChargeRecord(payload)
		if err != nil {
			return valid, nil
		}
		off += n
		valid += int64(n)
		if valid > skip && emit != nil {
			emit(rec)
		}
	}
}
