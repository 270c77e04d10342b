package stream

import (
	"errors"
	"math"
	"testing"
)

// TestRecordCodecRoundTrip: submissions and charge records decode back to
// what was encoded, bit for bit, including negative objects, negative
// zero and NaN values, an empty ID and an empty claim list.
func TestRecordCodecRoundTrip(t *testing.T) {
	claims := []Claim{{Object: 0, Value: 1.5}, {Object: -1, Value: math.Copysign(0, -1)}, {Object: 1 << 40, Value: math.NaN()}}
	for _, rec := range []ChargeRecord{
		{User: "alice", Window: 0, Epsilon: 0.5},
		{User: "", Window: -3, Epsilon: math.MaxFloat64, Claims: claims},
	} {
		enc := AppendChargeRecord([]byte("kept"), rec)[4:]
		got, err := DecodeChargeRecord(enc)
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		if got.User != rec.User || got.Window != rec.Window || got.Epsilon != rec.Epsilon || !sameClaims(got.Claims, rec.Claims) {
			t.Errorf("charge record round trip: got %+v, want %+v", got, rec)
		}
		if rec.Claims == nil && got.Claims != nil {
			t.Errorf("a record without claims decoded with %#v", got.Claims)
		}

		sub := AppendSubmission(nil, rec.User, rec.Claims)
		reuse := make([]Claim, 8)
		id, cl, err := DecodeSubmission(sub, reuse)
		if err != nil || string(id) != rec.User || !sameClaims(cl, rec.Claims) {
			t.Errorf("submission round trip: %q %+v (%v), want %q %+v", id, cl, err, rec.User, rec.Claims)
		}
		if len(cl) > 0 && &cl[0] != &reuse[0] {
			t.Error("DecodeSubmission did not decode into the slice it was given")
		}
	}
}

func sameClaims(a, b []Claim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Object != b[i].Object || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestRecordCodecStrict: every layout violation is ErrBadRecordEncoding,
// so whatever decodes re-encodes to its own bytes.
func TestRecordCodecStrict(t *testing.T) {
	valid := AppendChargeRecord(nil, ChargeRecord{User: "u", Window: 2, Epsilon: 1, Claims: []Claim{{Object: 3, Value: 4}}})
	if _, err := DecodeChargeRecord(valid); err != nil {
		t.Fatal(err)
	}
	// valid = 01 'u' | 04 | 8B epsilon | 01 | 03 8B value
	cases := map[string][]byte{
		"empty":               {},
		"user past the end":   {0x05, 'u'},
		"non-minimal length":  append([]byte{0x81, 0x00}, valid[1:]...),
		"truncated epsilon":   valid[:6],
		"claim count too big": append(append([]byte{}, valid[:11]...), 0x02, 0x03),
		"truncated claim":     valid[:len(valid)-1],
		"trailing bytes":      append(append([]byte{}, valid...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeChargeRecord(data); !errors.Is(err, ErrBadRecordEncoding) {
			t.Errorf("%s: DecodeChargeRecord err = %v, want ErrBadRecordEncoding", name, err)
		}
	}
	if _, _, err := DecodeSubmission(append(AppendSubmission(nil, "u", nil), 0), nil); !errors.Is(err, ErrBadRecordEncoding) {
		t.Errorf("submission with a trailing byte: err = %v, want ErrBadRecordEncoding", err)
	}
}
