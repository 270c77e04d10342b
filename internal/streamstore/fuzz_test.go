package streamstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pptd/internal/stream"
)

// formatRecords are the charge records the format tests pin: with and
// without claims, a non-ASCII user ID, and multi-byte varints.
var formatRecords = []stream.ChargeRecord{
	{User: "alice", Window: 0, Epsilon: 0.5},
	{User: "bob", Window: 3, Epsilon: 1.25, Claims: []stream.Claim{{Object: 1, Value: -2.5}, {Object: 0, Value: 7}}},
	{User: "углерод", Window: 42, Epsilon: 1e-9},
	{User: "device-0300", Window: 300, Epsilon: 67.25, Claims: []stream.Claim{{Object: 1 << 20, Value: math.Pi}, {Object: 31, Value: 0}}},
}

// fuzzSeedRecords encodes formatRecords one journal record each, through
// the encoder AppendCharge uses.
func fuzzSeedRecords(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, rec := range formatRecords {
		b, err := appendChargeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeRecord fuzzes the journal decoder with arbitrary bytes and
// checks the decoder's whole contract, not just "no panic":
//
//   - the reported valid prefix never exceeds the input and is a whole
//     number of records: walking their headers from the start lands
//     exactly on it;
//   - every accepted record re-encodes to exactly its bytes;
//   - decoding is deterministic and prefix-stable: re-parsing exactly
//     the valid prefix yields the same records and consumes all of it;
//   - torn-tail repair is garbage-proof: appending junk that cannot
//     itself form a record — a torn header, a torn record, the zeros of
//     a preallocated tail — after a valid prefix never loses or changes
//     the prefix's records (the crash-recovery property: a torn write
//     after the last durable record must cost nothing).
//
// Run as a CI smoke with: go test -fuzz FuzzDecodeRecord -fuzztime 10s
func FuzzDecodeRecord(f *testing.F) {
	seeds := fuzzSeedRecords(f)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	badCRC := cat(seeds[0])
	badCRC[5] ^= 0x01
	badPayload, err := appendRecord(nil, []byte("not a charge record"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 16))                                    // a preallocated tail: a zero-length header
	f.Add(seeds[0][:len(seeds[0])-3])                          // torn mid-payload
	f.Add(seeds[1][:5])                                        // torn mid-header
	f.Add(badCRC)                                              // wrong checksum
	f.Add(badPayload)                                          // intact frame, undecodable payload
	f.Add(cat([]byte{0xe8, 0x03, 0, 0, 1, 2, 3, 4}, seeds[2])) // length past the end
	f.Add(seeds[0])                                            // one valid record
	f.Add(cat(seeds[0], seeds[1], seeds[3]))                   // three valid records
	f.Add(cat(seeds[2], []byte("garbage tail")))               // valid + torn
	f.Add(cat(seeds[1], make([]byte, 4096)))                   // valid + preallocated tail
	f.Add([]byte("deadbeef {\"user\":\"json-era\",\"window\":0}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := parseJournal(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		off := 0
		for i, rec := range recs {
			n := recordLen(data[off:])
			enc, err := appendChargeRecord(nil, rec)
			if err != nil || n == 0 || !bytes.Equal(enc, data[off:off+n]) {
				t.Fatalf("record %d at %d does not re-encode to its %d bytes (%v)", i, off, n, err)
			}
			off += n
		}
		if int64(off) != valid {
			t.Fatalf("valid prefix %d does not end on a record boundary (%d records end at %d)", valid, len(recs), off)
		}
		recs2, valid2 := parseJournal(data[:valid])
		if valid2 != valid || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("re-parse of valid prefix diverged: %d/%d records, %d/%d bytes",
				len(recs), len(recs2), valid, valid2)
		}
		for _, junk := range [][]byte{
			[]byte("\xff\xfe torn-write-junk"),
			seeds[3][:len(seeds[3])/2],
			make([]byte, 64),
		} {
			torn := append(append([]byte{}, data[:valid]...), junk...)
			recs3, valid3 := parseJournal(torn)
			if valid3 != valid || !reflect.DeepEqual(recs, recs3) {
				t.Fatalf("junk %q changed the valid prefix: %d -> %d records", junk, len(recs), len(recs3))
			}
		}
	})
}

// TestJournalGolden pins the journal's byte layout: formatRecords
// appended through AppendCharge must produce exactly
// testdata/journal.golden (regenerate with -update; a change to it is a
// format break, not a refreshed fixture), the golden must decode back to
// formatRecords, and its first record is checked field by field against
// the documented layout.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, rec := range formatRecords {
		if err := s.AppendCharge(rec); err != nil {
			t.Fatal(err)
		}
	}
	end := s.JournalPos().Off
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	got := seg[:end]

	golden := filepath.Join("testdata", "journal.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes drifted from %s (a format break)\n got %x\nwant %x", golden, got, want)
	}
	recs, valid := parseJournal(want)
	if valid != int64(len(want)) || !reflect.DeepEqual(recs, formatRecords) {
		t.Fatalf("golden decodes to %d bytes of %+v, want all %d bytes of %+v", valid, recs, len(want), formatRecords)
	}

	// alice: uvarint 5 ‖ "alice" ‖ zig-zag varint 0 ‖ 0.5 as 8 LE bytes ‖ uvarint 0 claims.
	payload := append(append([]byte{5}, "alice"...), 0)
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(0.5))
	payload = append(payload, 0)
	var header [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:], crc32.ChecksumIEEE(payload))
	if first := append(header[:], payload...); !bytes.HasPrefix(want, first) {
		t.Fatalf("first record = %x, want length | CRC-32 | payload = %x", want[:len(first)], first)
	}
}
