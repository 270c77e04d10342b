package stream

import (
	"encoding/binary"
	"errors"
	"math"
)

// Binary submission and charge-record encodings: the one form of a claim
// list on the wire and on disk. A submission is the claim frame's
// payload (internal/crowd wraps it in the frame header); a charge record
// is a ledger journal record's payload (internal/streamstore frames and
// checksums it). They follow
// statecodec.go's idiom:
//
//	claim list    = uvarint count
//	                ‖ per claim: uvarint(uint64(int64(object))) ‖ 8 bytes little-endian IEEE-754 value
//	submission    = uvarint len(id) ‖ id bytes ‖ claim list
//	charge record = uvarint len(user) ‖ user bytes ‖ varint window ‖ 8 bytes epsilon ‖ claim list
//
// An object goes out as the unsigned form of its int64, so every int
// round-trips: a negative object decodes back to itself and the engine,
// not the encoding, rejects it with ErrBadClaim. The decoders are strict
// the statecodec.go way — varints minimal, every count and length checked
// against the bytes that remain before anything is allocated, nothing
// after the claim list — so every accepted input re-encodes to exactly
// the bytes it was decoded from.

// ErrBadRecordEncoding reports bytes that are not a well-formed
// submission or charge record: a truncated or non-minimal varint, a
// length or claim count larger than the bytes that remain, or trailing
// bytes.
var ErrBadRecordEncoding = errors.New("stream: malformed record encoding")

// minClaimEncoding is the smallest encoded claim (a one-byte object and
// its value); it bounds a hostile claim count.
const minClaimEncoding = 1 + 8

func appendClaims(dst []byte, claims []Claim) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(claims)))
	for _, c := range claims {
		dst = binary.AppendUvarint(dst, uint64(int64(c.Object)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Value))
	}
	return dst
}

// AppendSubmission appends the encoding of one submission — a client ID
// and its claims — to dst and returns the extended slice.
func AppendSubmission(dst []byte, id string, claims []Claim) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	return appendClaims(append(dst, id...), claims)
}

// DecodeSubmission decodes one submission occupying all of p. The ID
// aliases p and the claims reuse dst's capacity, so a caller decoding
// into the same slice in a loop stops allocating once it has grown; an
// empty claim list decodes to dst[:0]. Any layout violation is
// ErrBadRecordEncoding.
func DecodeSubmission(p []byte, dst []Claim) (id []byte, claims []Claim, err error) {
	d := stateDecoder{p: p, bad: ErrBadRecordEncoding}
	id = d.bytes()
	claims = d.claims(dst)
	return id, claims, d.end()
}

// AppendChargeRecord appends the encoding of one charge record to dst
// and returns the extended slice.
func AppendChargeRecord(dst []byte, rec ChargeRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rec.User)))
	dst = append(dst, rec.User...)
	dst = binary.AppendVarint(dst, int64(rec.Window))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Epsilon))
	return appendClaims(dst, rec.Claims)
}

// DecodeChargeRecord decodes one charge record occupying all of p into
// memory of its own. A record without claims decodes with nil Claims.
// Any layout violation is ErrBadRecordEncoding.
func DecodeChargeRecord(p []byte) (ChargeRecord, error) {
	d := stateDecoder{p: p, bad: ErrBadRecordEncoding}
	rec := ChargeRecord{User: string(d.bytes()), Window: int(d.varint()), Epsilon: d.float()}
	rec.Claims = d.claims(nil)
	return rec, d.end()
}

// claims reads one claim list into dst's capacity. The loop reads the
// bytes directly rather than through uvarint and float: it is the wire's
// per-claim hot path.
func (d *stateDecoder) claims(dst []Claim) []Claim {
	n := d.count(minClaimEncoding)
	if n == 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]Claim, n)
	}
	dst = dst[:n]
	p := d.p
	for i := range dst {
		obj, k := binary.Uvarint(p)
		if k <= 0 || (k > 1 && p[k-1] == 0) || len(p)-k < 8 {
			d.fail("truncated or non-minimal claim")
			return dst[:0]
		}
		dst[i] = Claim{Object: int(int64(obj)), Value: math.Float64frombits(binary.LittleEndian.Uint64(p[k:]))}
		p = p[k+8:]
	}
	d.p = p
	return dst
}
