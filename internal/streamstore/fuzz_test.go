package streamstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"pptd/internal/stream"
)

// fuzzSeedLines builds a few well-formed journal lines for the seed
// corpus through the same encoder AppendCharge uses.
func fuzzSeedLines(t testing.TB) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, rec := range []stream.ChargeRecord{
		{User: "alice", Window: 0, Epsilon: 0.5},
		{User: "bob", Window: 3, Epsilon: 1.25, Claims: []stream.Claim{{Object: 1, Value: -2.5}, {Object: 0, Value: 7}}},
		{User: "углерод", Window: 42, Epsilon: 1e-9}, // non-ASCII user id
	} {
		line, err := encodeChargeLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// FuzzDecodeRecord fuzzes the journal decoder with arbitrary bytes and
// checks the decoder's whole contract, not just "no panic":
//
//   - the reported valid prefix never exceeds the input and always ends
//     on a line boundary;
//   - decoding is deterministic and prefix-stable: re-parsing exactly
//     the valid prefix yields the same records and consumes all of it;
//   - torn-tail repair is garbage-proof: appending any junk that does
//     not itself form a valid line after a valid prefix never loses or
//     changes the prefix's records (the crash-recovery property — a torn
//     write after the last durable record must cost nothing).
//
// Run as a CI smoke with: go test -fuzz FuzzDecodeRecord -fuzztime 10s
func FuzzDecodeRecord(f *testing.F) {
	seeds := fuzzSeedLines(f)
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte("deadbeef {\"user\":\"torn"))                              // torn mid-payload
	f.Add([]byte("00000000 {\"user\":\"badcrc\",\"window\":0}\n"))          // wrong checksum
	f.Add([]byte("nothexxx {\"user\":\"badprefix\",\"window\":0}\n"))       // malformed crc field
	f.Add([]byte("deadbeef not-json\n"))                                    // bad payload
	f.Add(seeds[0])                                                         // one valid record
	f.Add(append(append([]byte{}, seeds[0]...), seeds[1]...))               // two valid records
	f.Add(append(append([]byte{}, seeds[2]...), []byte("garbage tail")...)) // valid + torn
	f.Add(append(append([]byte{}, seeds[1]...), 0xff, 0x00, '\n'))          // valid + binary junk line

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := parseJournal(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("valid prefix %d does not end on a line boundary", valid)
		}
		// Re-parsing the valid prefix alone is lossless and complete.
		recs2, valid2 := parseJournal(data[:valid])
		if valid2 != valid || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("re-parse of valid prefix diverged: %d/%d records, %d/%d bytes",
				len(recs), len(recs2), valid, valid2)
		}
		// A torn/garbage tail after the valid prefix never costs a record.
		// The junk deliberately cannot form a valid line (no newline), so
		// the prefix must decode identically.
		torn := append(append([]byte{}, data[:valid]...), []byte("\xff\xfe torn-write-junk")...)
		recs3, valid3 := parseJournal(torn)
		if valid3 != valid || !reflect.DeepEqual(recs, recs3) {
			t.Fatalf("garbage tail changed the valid prefix: %d -> %d records", len(recs), len(recs3))
		}
		// Round-trip: every decoded record re-encodes to a line the
		// decoder accepts again (the journal can always be rewritten from
		// its decoded form).
		for _, rec := range recs {
			line, err := encodeChargeLine(rec)
			if err != nil {
				t.Fatalf("re-encode decoded record: %v", err)
			}
			if _, ok := parseJournalLine(bytes.TrimSuffix(line, []byte("\n"))); !ok {
				t.Fatalf("re-encoded line rejected: %q", line)
			}
		}
	})
}

// TestCRCLineFormat pins the line codec to the bytes the journal has
// always held — crc32 as eight lower-case hex digits, a space, the
// payload, a newline — and splitCRCLine to exactly those lines.
func TestCRCLineFormat(t *testing.T) {
	for _, payload := range []string{`{}`, `{"user":"alice","window":0,"epsilon":0.5}`, "\x00\xff", ""} {
		want := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
		got := appendCRCLine([]byte("kept:"), []byte(payload))
		if string(got) != "kept:"+want {
			t.Errorf("appendCRCLine(%q) = %q, want %q after the prefix", payload, got, want)
		}
		back, ok := splitCRCLine([]byte(want[:len(want)-1]))
		if ok != (payload != "") || (ok && string(back) != payload) {
			t.Errorf("splitCRCLine(%q) = %q, %v", want, back, ok)
		}
	}
	for _, bad := range []string{"", "0000000 {}", "zzzzzzzz {}", "00000000{}", "00000000 {}", "+1234567 {}"} {
		if _, ok := splitCRCLine([]byte(bad)); ok {
			t.Errorf("splitCRCLine(%q) accepted a damaged line", bad)
		}
	}
}
