package streamstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pptd/internal/stream"
)

// TestLargeSegmentChunkedRecovery exercises the streaming recovery scan
// on a segment that the old whole-file read would have buffered at
// once: thousands of records crossing many scan-chunk boundaries, one
// record that alone spans several chunks, and a torn tail. The
// reopened store must replay everything, truncate the tail, and accept
// further appends on a clean record boundary.
func TestLargeSegmentChunkedRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SegmentBytes: 64 << 20}) // keep it one segment
	if err != nil {
		t.Fatal(err)
	}

	// A single record far larger than journalScanChunk: it must be
	// carried across several refills without being mistaken for a torn
	// tail.
	bigID := "big-" + strings.Repeat("u", 3*journalScanChunk)
	if err := s.AppendCharge(stream.ChargeRecord{User: bigID, Window: 0, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	const small = 2000
	for i := 0; i < small; i++ {
		rec := stream.ChargeRecord{User: fmt.Sprintf("user-%04d", i), Window: i % 7, Epsilon: 0.125}
		if err := s.AppendCharge(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: a torn record lands after the last durable record.
	torn, err := appendChargeRecord(nil, stream.ChargeRecord{User: "mallory", Window: 0, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentFileName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenWith(dir, Options{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st, err := recoveredState(t, re, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || len(st.Users) != small+1 {
		t.Fatalf("recovered %d users, want %d", len(st.Users), small+1)
	}
	found := false
	for _, u := range st.Users {
		if u.ID == "mallory" {
			t.Fatal("torn record replayed")
		}
		if u.ID == bigID {
			found = true
			if math.Abs(u.CumulativeEpsilon-1) > 1e-12 {
				t.Errorf("big record epsilon = %v, want 1", u.CumulativeEpsilon)
			}
		}
	}
	if !found {
		t.Fatalf("multi-chunk record lost on recovery")
	}

	// The repair must have left the next append on a record boundary.
	if err := re.AppendCharge(stream.ChargeRecord{User: "carol", Window: 8, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := OpenWith(dir, Options{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = third.Close() }()
	st, err = recoveredState(t, third, bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Users) != small+2 {
		t.Fatalf("after post-repair append: %d users, want %d", len(st.Users), small+2)
	}
}

// TestScanJournalFileMatchesParseJournal pins the chunked scanner to the
// in-memory parser it replaced: over the same bytes — valid records of
// assorted sizes plus a torn tail — both must report the same valid
// length and the same records after any skip offset.
func TestScanJournalFileMatchesParseJournal(t *testing.T) {
	var data []byte
	var ends []int64
	for i, id := range []string{
		"a",
		strings.Repeat("b", journalScanChunk+17), // record straddles a chunk boundary
		"c",
		strings.Repeat("d", 2*journalScanChunk),
		"e",
	} {
		line, err := appendChargeRecord(nil, stream.ChargeRecord{User: id, Window: i, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, line...)
		ends = append(ends, int64(len(data)))
	}
	bad, err := appendChargeRecord(nil, stream.ChargeRecord{User: "x", Window: 9, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bad[len(bad)-1] ^= 0x01 // a checksum mismatch, then junk
	torn := append(append(append([]byte{}, data...), bad...), " junk"...)

	path := filepath.Join(t.TempDir(), "seg.wal")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()

	skips := []int64{0, 1, ends[0], ends[1], ends[len(ends)-1], int64(len(torn))}
	for _, skip := range skips {
		wantRecs, wantValid := parseJournalAfter(torn, skip)
		var gotRecs []stream.ChargeRecord
		gotValid, err := scanJournalFile(f, int64(len(torn)), skip, func(rec stream.ChargeRecord) {
			gotRecs = append(gotRecs, rec)
		})
		if err != nil {
			t.Fatalf("skip %d: %v", skip, err)
		}
		if gotValid != wantValid {
			t.Errorf("skip %d: valid = %d, want %d", skip, gotValid, wantValid)
		}
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("skip %d: %d records, want %d", skip, len(gotRecs), len(wantRecs))
		}
		for i := range gotRecs {
			if !reflect.DeepEqual(gotRecs[i], wantRecs[i]) {
				t.Errorf("skip %d: record %d = %+v, want %+v", skip, i, gotRecs[i], wantRecs[i])
			}
		}
	}
}
