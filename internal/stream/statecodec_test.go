package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pptd/internal/randx"
)

// churnedEngine builds the awkward engine the export and the codec must
// both get right: users registered out of ID order, a close that
// estimated (so every carry is an estimate) and evicted down to a residency
// cap (so the slot table has free holes), then a half-ingested open
// window from returning, re-admitted and brand-new users with partial
// object coverage.
func churnedEngine(t testing.TB, estimator string) (*Engine, Config) {
	t.Helper()
	cfg := Config{
		NumObjects:       7,
		NumShards:        3,
		Estimator:        estimator,
		Decay:            churnDecay,
		MaxResidentUsers: 4,
		UserStore:        newMemUserStore(),
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	rng := randx.New(41)
	batches := windowBatches(rng, 10, cfg.NumObjects)
	for u := 0; u < 10; u++ {
		id := fmt.Sprintf("user-%02d", (u*7)%10)
		if _, _, err := e.Ingest(id, batches[id]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"zed", "user-03", "user-08", "abe", "user-05"} {
		claims := []Claim{{Object: rng.Intn(3), Value: rng.Norm()}, {Object: 3 + rng.Intn(4), Value: math.Pi * rng.Norm()}}
		if _, _, err := e.Ingest(id, claims); err != nil {
			t.Fatal(err)
		}
	}
	if slots, live := e.users.slots(), e.users.count(); slots <= live {
		t.Fatalf("%d slots for %d resident users: the scenario left no evicted free slot", slots, live)
	}
	return e, cfg
}

// referenceStats is the export order's specification: every live
// statistic, sorted by (object, user ID) with a string comparison per
// pair — what exportStateLocked did before it ranked the IDs once.
func referenceStats(e *Engine) []StatSnapshot {
	ids := e.users.ids()
	var out []StatSnapshot
	for _, s := range e.shards {
		for slot, r := range s.rows {
			for off := 0; off < len(r); off += cellSize {
				c := r.at(off)
				out = append(out, StatSnapshot{Object: c.object, User: ids[slot], Sum: c.sum, Mass: c.mass})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return statBefore(&out[i], &out[j]) })
	return out
}

var codecEstimators = []string{EstimatorCRH, EstimatorGTM, EstimatorCATD}

// TestExportStateCanonicalOrder: the rank-ordered export equals the
// string-sorted reference on an engine with evicted slots, slot order
// unrelated to ID order, and sparse object coverage.
func TestExportStateCanonicalOrder(t *testing.T) {
	for _, est := range codecEstimators {
		e, _ := churnedEngine(t, est)
		st, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceStats(e); !reflect.DeepEqual(st.Stats, want) {
			t.Errorf("%s: export order differs from the sorted reference\n got %+v\nwant %+v", est, st.Stats, want)
		}
	}
	empty, err := New(Config{NumObjects: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = empty.Close() }()
	if st, err := empty.ExportState(); err != nil || st.Stats != nil || st.Users == nil {
		t.Errorf("empty engine export = %+v, %v; want nil Stats, empty non-nil Users", st, err)
	}
}

// TestEngineStateCodecRoundTrip: for every estimator, an export of the
// churned engine survives encode → decode unchanged (floats bit for
// bit), restores into a fresh engine, and
// that engine's own export encodes to the very same bytes.
func TestEngineStateCodecRoundTrip(t *testing.T) {
	for _, est := range codecEstimators {
		e, cfg := churnedEngine(t, est)
		st, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		// Values JSON would have mangled must come back bit-exact too.
		st.Stats[0].Sum = math.Copysign(0, -1)
		st.Users[0].Carry = math.Float64frombits(0x3ff0000000000001)

		enc, err := AppendEngineState(nil, st)
		if err != nil {
			t.Fatalf("%s: encode: %v", est, err)
		}
		dec, err := DecodeEngineState(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", est, err)
		}
		if !reflect.DeepEqual(dec, st) {
			t.Fatalf("%s: decoded state differs\n got %+v\nwant %+v", est, dec, st)
		}
		if math.Signbit(dec.Stats[0].Sum) != true {
			t.Errorf("%s: -0 lost its sign", est)
		}

		cfg.UserStore = newMemUserStore()
		re, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Restore(dec); err != nil {
			t.Fatalf("%s: restore decoded state: %v", est, err)
		}
		again, err := re.ExportState()
		_ = re.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("%s: restored engine re-exports a different state\n got %+v\nwant %+v", est, again, st)
		}
		if reenc, err := AppendEngineState(nil, again); err != nil || !bytes.Equal(reenc, enc) {
			t.Errorf("%s: re-export encodes to different bytes (%v)", est, err)
		}
	}
}

// TestAppendEngineStatePrefix: the encoder appends — a caller's header
// bytes in dst survive in place (streamstore frames the file that way).
func TestAppendEngineStatePrefix(t *testing.T) {
	st := &EngineState{Window: 2, Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: -1}}}
	bare, err := AppendEngineState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	withHdr, err := AppendEngineState([]byte("HDR"), st)
	if err != nil || !bytes.Equal(withHdr, append([]byte("HDR"), bare...)) {
		t.Fatalf("append after a prefix = %x, %v; want HDR + %x", withHdr, err, bare)
	}
}

// TestAppendEngineStateRejectsUnencodable: a statistic for a user the
// table lacks, or a table naming a user twice, has no encoding.
func TestAppendEngineStateRejectsUnencodable(t *testing.T) {
	for name, st := range map[string]*EngineState{
		"stat for unknown user": {Users: []UserSnapshot{{ID: "a"}}, Stats: []StatSnapshot{{Object: 0, User: "b", Mass: 1}}},
		"duplicate user":        {Users: []UserSnapshot{{ID: "a"}, {ID: "a"}}},
	} {
		if _, err := AppendEngineState(nil, st); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: encode = %v, want ErrBadState", name, err)
		}
	}
}

// TestDecodeEngineStateStrict walks the decoder's refusals: each case
// damages one well-formed encoding in one way.
func TestDecodeEngineStateStrict(t *testing.T) {
	st := &EngineState{
		NumObjects: 3, Window: 5, WindowClaims: 2, TotalClaims: 9,
		Estimator: EstimatorCRH,
		Users:     []UserSnapshot{{ID: "a", Carry: 1, LastWindow: -1}, {ID: "b", Carry: 2, CumulativeEpsilon: 3, LastWindow: 4, Windows: 5}},
		Stats:     []StatSnapshot{{Object: 0, User: "a", Sum: 1, Mass: 1}, {Object: 2, User: "b", Sum: -4, Mass: 2}},
	}
	good, err := AppendEngineState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := DecodeEngineState(good); err != nil || !reflect.DeepEqual(dec, st) {
		t.Fatalf("well-formed encoding: %+v, %v", dec, err)
	}
	// Field offsets of this particular encoding: four one-byte varints,
	// then len+"crh", then the user count.
	const userCountAt = 4 + 1 + len(EstimatorCRH)
	statCountAt := len(good) - 2*(minStatEncoding) - 1
	if good[userCountAt] != 2 || good[statCountAt] != 2 {
		t.Fatalf("layout drifted: user count byte %d, stat count byte %d", good[userCountAt], good[statCountAt])
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"empty input":         {},
		"truncated varint":    {0x80},
		"truncated mid-user":  good[:userCountAt+4],
		"truncated mid-stat":  good[:len(good)-3],
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"non-minimal varint":  mutate(func(b []byte) []byte { return append([]byte{0x80, 0x00}, b[1:]...) }),
		"overlong varint":     append(bytes.Repeat([]byte{0xff}, 10), 0x01),
		"user count past end": mutate(func(b []byte) []byte { b[userCountAt] = 0x7f; return b }),
		"stat count past end": mutate(func(b []byte) []byte { b[statCountAt] = 3; return b }),
		"huge count, tiny input": append(append([]byte(nil), good[:userCountAt]...),
			binary.AppendUvarint(nil, math.MaxUint64)...),
		"estimator length past end": mutate(func(b []byte) []byte { b[4] = 0x7f; return b }),
		"user index out of table":   mutate(func(b []byte) []byte { b[statCountAt+2] = 2; return b }),
		"duplicate user id":         mutate(func(b []byte) []byte { b[bytes.IndexByte(b[userCountAt:], 'b')+userCountAt] = 'a'; return b }),
	}
	for name, data := range cases {
		if dec, err := DecodeEngineState(data); !errors.Is(err, ErrBadStateEncoding) {
			t.Errorf("%s: decode = %+v, %v; want ErrBadStateEncoding", name, dec, err)
		}
	}
}

// TestMergeStatesMatchesSortedConcatenation: the k-way merge returns
// exactly what sorting the concatenation did, for canonical parts (what
// workers send) and for a part that arrives out of order.
func TestMergeStatesMatchesSortedConcatenation(t *testing.T) {
	rng := randx.New(7)
	parts := make([]*EngineState, 3)
	for p := range parts {
		st := mergeTestState(EstimatorCRH, 4, 9)
		for u := 0; u < 6; u++ {
			id := fmt.Sprintf("w%d-user-%02d", (p*5+u)%3, p*6+u) // interleaves across parts
			st.Users = append(st.Users, UserSnapshot{ID: id, Carry: 1, LastWindow: 3, Windows: 1})
			for obj := 0; obj < 9; obj++ {
				if rng.Float64() < 0.6 {
					st.Stats = append(st.Stats, StatSnapshot{Object: obj, User: id, Sum: rng.Norm(), Mass: 1 + rng.Float64()})
				}
			}
		}
		sort.Slice(st.Stats, func(i, j int) bool { return statBefore(&st.Stats[i], &st.Stats[j]) })
		parts[p] = st
	}
	parts = append(parts, mergeTestState(EstimatorCRH, 4, 9)) // a worker with nothing live
	check := func(label string) {
		t.Helper()
		var want []StatSnapshot
		for _, p := range parts {
			want = append(want, p.Stats...)
		}
		sort.Slice(want, func(i, j int) bool { return statBefore(&want[i], &want[j]) })
		before := append([]StatSnapshot(nil), parts[1].Stats...)
		merged, err := MergeStates(parts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(merged.Stats, want) {
			t.Errorf("%s: merged stats differ from the sorted concatenation", label)
		}
		if !reflect.DeepEqual(parts[1].Stats, before) {
			t.Errorf("%s: merge reordered its input", label)
		}
	}
	check("canonical parts")
	s := parts[1].Stats
	s[0], s[len(s)-1] = s[len(s)-1], s[0]
	check("one part out of order")
}

// FuzzDecodeEngineState: the decoder never panics, never builds more
// records than the input has bytes for, and whatever it accepts
// re-encodes to exactly the input — the encoding is canonical.
func FuzzDecodeEngineState(f *testing.F) {
	for _, est := range codecEstimators {
		e, _ := churnedEngine(f, est)
		st, err := e.ExportState()
		if err != nil {
			f.Fatal(err)
		}
		enc, err := AppendEngineState(nil, st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	empty, _ := AppendEngineState(nil, &EngineState{})
	f.Add(empty)
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeEngineState(data)
		if err != nil {
			if !errors.Is(err, ErrBadStateEncoding) {
				t.Fatalf("decode error outside ErrBadStateEncoding: %v", err)
			}
			return
		}
		if need := len(st.Users)*minUserEncoding + len(st.Stats)*minStatEncoding; need > len(data) {
			t.Fatalf("%d users + %d stats out of %d bytes", len(st.Users), len(st.Stats), len(data))
		}
		again, err := AppendEngineState(nil, st)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently\n in %x\nout %x", data, again)
		}
	})
}
