package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary engine-state encoding: the one serialized form of an
// EngineState, on disk and on the wire (internal/streamstore frames,
// checksums and writes it; a cluster worker's close reply carries it
// bare, and the coordinator decodes it with DecodeEngineState). It shares
// the claim list's idiom (recordcodec.go): the user table is written
// once, every statistic references its user by table index, and floats
// are fixed little-endian IEEE-754 bits, so they round-trip bit-exactly.
//
//	varint  numObjects ‖ varint window ‖ varint windowClaims ‖ varint totalClaims
//	uvarint len(estimator) ‖ estimator bytes
//	uvarint user count
//	  per user: uvarint len(id) ‖ id bytes ‖ 8 bytes carry ‖ 8 bytes cumulativeEpsilon
//	            ‖ varint lastWindow ‖ varint windows
//	uvarint stat count
//	  per stat: varint object ‖ uvarint user table index ‖ 8 bytes sum ‖ 8 bytes mass
//
// varint is the zig-zag signed form (a never-charged user's lastWindow
// is -1), uvarint the unsigned one; both must be minimally encoded, and
// user IDs must be unique within the table, so that every accepted
// input re-encodes to exactly the bytes it was decoded from. The
// encoding carries no integrity check of its own — the file header
// around it does — and validates layout only: whether the state is
// restorable is still validateState's call.

// ErrBadStateEncoding reports bytes that are not a well-formed binary
// EngineState: a truncated or non-minimal varint, a count or length
// larger than the bytes that remain, a duplicate user ID, a statistic
// whose user index is outside the table, or trailing bytes.
var ErrBadStateEncoding = errors.New("stream: malformed engine state encoding")

const (
	// The smallest wire size of one user-table entry (empty ID, one-byte
	// varints) and of one statistic; they bound a hostile count by the
	// bytes that remain before anything is allocated.
	minUserEncoding = 1 + 8 + 8 + 1 + 1
	minStatEncoding = 1 + 1 + 8 + 8
)

// AppendEngineState appends the binary encoding of st to dst and returns
// the extended slice. It fails with ErrBadState when a statistic names a
// user the state's own user table does not hold — such a state has no
// encoding (and no engine would restore it).
func AppendEngineState(dst []byte, st *EngineState) ([]byte, error) {
	size := 64 + len(st.Estimator) + len(st.Stats)*(minStatEncoding+3)
	for i := range st.Users {
		size += minUserEncoding + 3 + len(st.Users[i].ID)
	}
	dst = slices.Grow(dst, size)

	dst = binary.AppendVarint(dst, int64(st.NumObjects))
	dst = binary.AppendVarint(dst, int64(st.Window))
	dst = binary.AppendVarint(dst, st.WindowClaims)
	dst = binary.AppendVarint(dst, st.TotalClaims)
	dst = binary.AppendUvarint(dst, uint64(len(st.Estimator)))
	dst = append(dst, st.Estimator...)

	index := make(map[string]uint64, len(st.Users))
	dst = binary.AppendUvarint(dst, uint64(len(st.Users)))
	for i := range st.Users {
		u := &st.Users[i]
		if _, dup := index[u.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate user %q", ErrBadState, u.ID)
		}
		index[u.ID] = uint64(i)
		dst = binary.AppendUvarint(dst, uint64(len(u.ID)))
		dst = append(dst, u.ID...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(u.Carry))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(u.CumulativeEpsilon))
		dst = binary.AppendVarint(dst, int64(u.LastWindow))
		dst = binary.AppendVarint(dst, int64(u.Windows))
	}

	dst = binary.AppendUvarint(dst, uint64(len(st.Stats)))
	for i := range st.Stats {
		sn := &st.Stats[i]
		idx, ok := index[sn.User]
		if !ok {
			return nil, fmt.Errorf("%w: stat (%d, %q) for a user missing from the user table", ErrBadState, sn.Object, sn.User)
		}
		dst = binary.AppendVarint(dst, int64(sn.Object))
		dst = binary.AppendUvarint(dst, idx)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sn.Sum))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sn.Mass))
	}
	return dst, nil
}

// DecodeEngineState decodes one binary EngineState occupying all of
// data. Every count and length is checked against the bytes that remain
// before anything is allocated for it, so the decoder never reserves
// more than a small constant multiple of len(data). Any layout violation
// is ErrBadStateEncoding. Users decodes to a non-nil slice and Stats to
// nil when empty — the shapes ExportState produces.
func DecodeEngineState(data []byte) (*EngineState, error) {
	d := stateDecoder{p: data, bad: ErrBadStateEncoding}
	st := &EngineState{
		NumObjects:   int(d.varint()),
		Window:       int(d.varint()),
		WindowClaims: d.varint(),
		TotalClaims:  d.varint(),
		Estimator:    string(d.bytes()),
	}

	users := d.count(minUserEncoding)
	st.Users = make([]UserSnapshot, users)
	seen := make(map[string]struct{}, users)
	for i := range st.Users {
		u := &st.Users[i]
		u.ID = string(d.bytes())
		u.Carry = d.float()
		u.CumulativeEpsilon = d.float()
		u.LastWindow = int(d.varint())
		u.Windows = int(d.varint())
		if d.err != nil {
			return nil, d.err
		}
		if _, dup := seen[u.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate user %q in the user table", ErrBadStateEncoding, u.ID)
		}
		seen[u.ID] = struct{}{}
	}

	if stats := d.count(minStatEncoding); stats > 0 {
		st.Stats = make([]StatSnapshot, stats)
	}
	for i := range st.Stats {
		sn := &st.Stats[i]
		sn.Object = int(d.varint())
		idx := d.uvarint()
		sn.Sum = d.float()
		sn.Mass = d.float()
		if d.err != nil {
			return nil, d.err
		}
		if idx >= uint64(len(st.Users)) {
			return nil, fmt.Errorf("%w: stat %d references user %d of %d", ErrBadStateEncoding, i, idx, len(st.Users))
		}
		sn.User = st.Users[idx].ID
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return st, nil
}

// stateDecoder consumes an encoded state or record front to back. The
// first failure sticks in err, wrapping bad, and every later read returns
// zero, so call sites check once per record instead of once per field.
type stateDecoder struct {
	p   []byte
	err error
	bad error
}

func (d *stateDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.bad, what)
	}
	d.p = nil
}

// end reports the first failure, or bytes left after the last field.
func (d *stateDecoder) end() error {
	if d.err == nil && len(d.p) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.p)))
	}
	return d.err
}

// uvarint reads one minimally encoded unsigned varint.
func (d *stateDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	if n > 1 && d.p[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

// varint reads one zig-zag signed varint (binary.AppendVarint's form).
func (d *stateDecoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *stateDecoder) float() float64 {
	if len(d.p) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	return v
}

// bytes reads one length-prefixed byte string as a view into the input.
func (d *stateDecoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.p)) {
		d.fail("length past the end of the input")
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

// count reads a record count and bounds it by the records the remaining
// bytes could possibly hold.
func (d *stateDecoder) count(minRecord int) int {
	n := d.uvarint()
	if n > uint64(len(d.p)/minRecord) {
		d.fail("count past the end of the input")
		return 0
	}
	return int(n)
}
