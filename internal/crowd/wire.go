package crowd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"

	"pptd/internal/stream"
)

// Binary claim framing: the compact wire format negotiated on
// POST /v1/stream/claims via Content-Type: application/x-pptd-claims.
// JSON stays the default; the binary frame exists for the ingest hot
// path, where JSON decoding dominates the cost of accepting a claim
// batch. The layout (docs/WIRE.md) mirrors the durable journal's
// discipline — a length prefix up front and a CRC32 over the payload —
// so a torn or corrupted frame is always rejected as a unit, never
// half-ingested:
//
//	offset 0  4 bytes  magic "PTDC"
//	offset 4  1 byte   version (1)
//	offset 5  4 bytes  payload length, little-endian uint32
//	offset 9  4 bytes  CRC32-IEEE of the payload, little-endian uint32
//	offset 13          payload
//
// payload = uvarint(len clientID) ‖ clientID bytes
//	‖ uvarint(claim count)
//	‖ per claim: uvarint(uint64(int64(object))) ‖ 8 bytes little-endian IEEE-754 value
//
// The payload is stream.AppendSubmission's encoding;
// stream.DecodeSubmission is its one strict decoder. An out-of-range
// (negative) object decodes back to itself so the engine rejects it with the same ErrBadClaim a JSON
// submission would get — framing validates transport integrity only,
// never business rules.

// ContentTypeClaims is the Content-Type selecting the binary claim
// frame on POST /v1/stream/claims. Any other value (or none) means
// JSON.
const ContentTypeClaims = "application/x-pptd-claims"

// DefaultMaxRequestBytes caps the request body of every POST route
// (stream claims, batch submissions, cluster close/commit) when no
// explicit cap is configured. Oversized bodies are refused with the 413
// payload_too_large envelope before they are buffered.
const DefaultMaxRequestBytes int64 = 16 << 20

// ErrBadFrame reports a malformed binary claim frame: bad magic,
// unknown version, a truncated body, a CRC mismatch, or payload bytes
// that do not parse as the documented field layout.
var ErrBadFrame = errors.New("crowd: malformed claim frame")

const (
	claimFrameMagic     = "PTDC"
	claimFrameVersion   = 1
	claimFrameHeaderLen = 13
	// maxClaimFramePayload bounds the decoder's own allocation: a hostile
	// length prefix cannot make it reserve more than this, independent of
	// the (usually tighter) per-route body cap.
	maxClaimFramePayload = 64 << 20
)

// ClaimFrame is one decoded submission, whichever wire it arrived on
// (see decodeSubmission in frontdoor.go). ClientID aliases the
// frame's internal read buffer and Claims reuses its previous capacity,
// so a frame obtained from GetClaimFrame and decoded in a loop reaches
// a steady state with no per-claim heap allocations. Neither field is
// valid after the frame is returned with PutClaimFrame.
type ClaimFrame struct {
	// ClientID is the submitting client's ID (a view into the frame's
	// buffer — copy it to retain it past the next decode).
	ClientID []byte
	// Claims holds the decoded batch, typed for direct engine ingest.
	Claims []stream.Claim

	buf []byte // reusable header+payload read buffer; ClientID aliases it
}

var claimFramePool = sync.Pool{New: func() any { return new(ClaimFrame) }}

// GetClaimFrame returns a reusable frame from the package pool. Pair it
// with PutClaimFrame once the decoded batch has been handed off.
func GetClaimFrame() *ClaimFrame { return claimFramePool.Get().(*ClaimFrame) }

// PutClaimFrame returns a frame (and its internal buffers) to the pool.
// The caller must be done with ClientID and Claims: both alias memory
// the next GetClaimFrame/DecodeClaimFrame pair will overwrite.
func PutClaimFrame(f *ClaimFrame) {
	f.ClientID = nil
	f.Claims = f.Claims[:0]
	claimFramePool.Put(f)
}

// FrameOf views a submission as a decoded frame without copying its
// claims — how the Submit(Submission) conveniences join the one frame
// path the HTTP front door uses. The frame is not pooled: do not hand
// it to PutClaimFrame.
func FrameOf(sub Submission) *ClaimFrame {
	return &ClaimFrame{ClientID: []byte(sub.ClientID), Claims: sub.Claims}
}

// decodeJSON reads one JSON submission body ({"clientId", "claims"})
// from r into f: the claims decode straight into f's reusable slice and
// the client ID lands in its read buffer, so past that point a JSON
// batch is indistinguishable from a binary one. Read failures stay in
// the chain like DecodeClaimFrame's.
func (f *ClaimFrame) decodeJSON(r io.Reader) error {
	// encoding/json decodes into the slice's existing elements, so a claim
	// omitting a field would inherit whatever the previous request left
	// there; zero the whole reusable capacity first.
	clear(f.Claims[:cap(f.Claims)])
	sub := Submission{Claims: f.Claims[:0]}
	if err := json.NewDecoder(r).Decode(&sub); err != nil {
		return err
	}
	f.buf = append(f.buf[:0], sub.ClientID...)
	f.ClientID, f.Claims = f.buf, sub.Claims
	return nil
}

// DecodeClaimFrame reads one binary claim frame from r into f, reusing
// f's buffers. A clean EOF before the first header byte is returned as
// io.EOF; anything else that fails the layout, the length bound, or the
// CRC wraps ErrBadFrame. Read failures stay in the chain, so a body cap
// hit surfaces its *http.MaxBytesError through errors.As.
func DecodeClaimFrame(r io.Reader, f *ClaimFrame) error {
	if cap(f.buf) < claimFrameHeaderLen {
		f.buf = make([]byte, claimFrameHeaderLen, 1024)
	}
	hdr := f.buf[:claimFrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: short header: %w", ErrBadFrame, err)
	}
	length, err := parseClaimFrameHeader(hdr)
	if err != nil {
		return err
	}
	// The payload lands in the same reused buffer the header occupies, so
	// lift the CRC out of hdr before it is overwritten.
	want := binary.LittleEndian.Uint32(hdr[9:13])
	if cap(f.buf) < int(length) {
		f.buf = make([]byte, length)
	}
	payload := f.buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("%w: short payload (%d bytes expected): %w", ErrBadFrame, length, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrBadFrame, got, want)
	}
	return f.parsePayload(payload)
}

// DecodeClaimFrameBytes decodes one frame from the front of data,
// returning the number of bytes consumed. Trailing bytes after a valid
// frame are left untouched — garbage appended to a frame never costs
// the frame itself.
func DecodeClaimFrameBytes(data []byte, f *ClaimFrame) (int, error) {
	if len(data) < claimFrameHeaderLen {
		return 0, fmt.Errorf("%w: short header: %d of %d bytes", ErrBadFrame, len(data), claimFrameHeaderLen)
	}
	length, err := parseClaimFrameHeader(data[:claimFrameHeaderLen])
	if err != nil {
		return 0, err
	}
	end := claimFrameHeaderLen + int(length)
	if len(data) < end {
		return 0, fmt.Errorf("%w: short payload: %d of %d bytes", ErrBadFrame, len(data)-claimFrameHeaderLen, length)
	}
	payload := data[claimFrameHeaderLen:end]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[9:13]); got != want {
		return 0, fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrBadFrame, got, want)
	}
	if err := f.parsePayload(payload); err != nil {
		return 0, err
	}
	return end, nil
}

// parseClaimFrameHeader validates magic, version, and the length bound,
// returning the payload length.
func parseClaimFrameHeader(hdr []byte) (uint32, error) {
	if string(hdr[:4]) != claimFrameMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[:4])
	}
	if hdr[4] != claimFrameVersion {
		return 0, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadFrame, hdr[4], claimFrameVersion)
	}
	length := binary.LittleEndian.Uint32(hdr[5:9])
	if length > maxClaimFramePayload {
		return 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, length, maxClaimFramePayload)
	}
	return length, nil
}

// parsePayload unpacks the CRC-verified payload into f. ClientID
// aliases the payload bytes (which live in f.buf for the streaming
// decoder); Claims reuses prior capacity.
func (f *ClaimFrame) parsePayload(p []byte) error {
	id, claims, err := stream.DecodeSubmission(p, f.Claims)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	f.ClientID, f.Claims = id, claims
	return nil
}

// AppendClaimFrame appends one encoded claim frame for the submission
// to dst and returns the extended slice. It is the encoder behind the
// client's binary wire format (see Client and WithClaimWire).
func AppendClaimFrame(dst []byte, clientID string, claims []Claim) []byte {
	start := len(dst)
	dst = append(dst, claimFrameMagic...)
	dst = append(dst, claimFrameVersion)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC backfilled below
	dst = stream.AppendSubmission(dst, clientID, claims)
	payload := dst[start+claimFrameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+9:], crc32.ChecksumIEEE(payload))
	return dst
}

// isClaimFrameContentType reports whether a request's Content-Type
// selects the binary claim frame (exact match, media parameters
// allowed).
func isClaimFrameContentType(ct string) bool {
	return ct == ContentTypeClaims || strings.HasPrefix(ct, ContentTypeClaims+";")
}

// effectiveMaxRequestBytes resolves a configured body cap: zero means
// the package default.
func effectiveMaxRequestBytes(v int64) int64 {
	if v > 0 {
		return v
	}
	return DefaultMaxRequestBytes
}
