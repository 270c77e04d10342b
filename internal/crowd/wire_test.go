package crowd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pptd/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frame_*.bin")

// goldenFrames are the pinned wire encodings: any byte-level drift in
// the encoder is a protocol break, caught by comparing against
// testdata/frame_*.bin.
var goldenFrames = []struct {
	name     string
	clientID string
	claims   []Claim
}{
	{"frame_basic.bin", "device-001", []Claim{{Object: 0, Value: 1.5}, {Object: 3, Value: -2.25}, {Object: 7, Value: 0}}},
	{"frame_empty_batch.bin", "u", nil},
	{"frame_wide_varints.bin", "device-é", []Claim{{Object: 1 << 20, Value: math.Pi}, {Object: 300, Value: -math.MaxFloat64}}},
}

func TestClaimFrameGolden(t *testing.T) {
	for _, g := range goldenFrames {
		path := filepath.Join("testdata", g.name)
		got := AppendClaimFrame(nil, g.clientID, g.claims)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", g.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder drifted from the pinned wire bytes (protocol break?)\n got %x\nwant %x", g.name, got, want)
		}
		// The pinned bytes must also decode back to the source submission.
		f := GetClaimFrame()
		n, err := DecodeClaimFrameBytes(want, f)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", g.name, err)
		}
		if n != len(want) {
			t.Errorf("%s: consumed %d of %d bytes", g.name, n, len(want))
		}
		assertFrameEquals(t, g.name, f, g.clientID, g.claims)
		PutClaimFrame(f)
	}
}

func assertFrameEquals(t *testing.T, label string, f *ClaimFrame, clientID string, claims []Claim) {
	t.Helper()
	if string(f.ClientID) != clientID {
		t.Errorf("%s: clientID = %q, want %q", label, f.ClientID, clientID)
	}
	if len(f.Claims) != len(claims) {
		t.Fatalf("%s: %d claims, want %d", label, len(f.Claims), len(claims))
	}
	for i, c := range claims {
		got := f.Claims[i]
		if got.Object != c.Object || math.Float64bits(got.Value) != math.Float64bits(c.Value) {
			t.Errorf("%s: claim %d = %+v, want %+v", label, i, got, c)
		}
	}
}

// TestClaimFrameRoundTrip covers encode→decode through both decoders,
// including values framing must pass through untouched: negative
// objects (the engine's job to reject), negative zero, huge magnitudes.
func TestClaimFrameRoundTrip(t *testing.T) {
	cases := []struct {
		clientID string
		claims   []Claim
	}{
		{"", nil},
		{"alice", []Claim{{Object: 0, Value: 42}}},
		{"负载", []Claim{{Object: -1, Value: 1}, {Object: math.MaxInt32, Value: math.SmallestNonzeroFloat64}}},
		{"z", []Claim{{Object: 5, Value: math.Copysign(0, -1)}, {Object: 5, Value: math.NaN()}}},
	}
	for _, tc := range cases {
		data := AppendClaimFrame(nil, tc.clientID, tc.claims)

		f := GetClaimFrame()
		if err := DecodeClaimFrame(bytes.NewReader(data), f); err != nil {
			t.Fatalf("%q: streaming decode: %v", tc.clientID, err)
		}
		assertFrameEquals(t, "stream:"+tc.clientID, f, tc.clientID, tc.claims)
		PutClaimFrame(f)

		f2 := GetClaimFrame()
		n, err := DecodeClaimFrameBytes(data, f2)
		if err != nil {
			t.Fatalf("%q: bytes decode: %v", tc.clientID, err)
		}
		if n != len(data) {
			t.Errorf("%q: consumed %d of %d bytes", tc.clientID, n, len(data))
		}
		assertFrameEquals(t, "bytes:"+tc.clientID, f2, tc.clientID, tc.claims)
		PutClaimFrame(f2)
	}
}

// TestDecodeClaimFrameRejects corrupts a valid frame one way at a time;
// every corruption must fail with ErrBadFrame from both decoders, and a
// clean empty stream must read as io.EOF.
func TestDecodeClaimFrameRejects(t *testing.T) {
	valid := AppendClaimFrame(nil, "device", []Claim{{Object: 1, Value: 2.5}, {Object: 2, Value: -1}})

	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte{}, valid...)
		mutate(c)
		return c
	}
	refixCRC := func(c []byte) { // recompute the CRC so only the layout is wrong
		binary.LittleEndian.PutUint32(c[9:13], crc32.ChecksumIEEE(c[claimFrameHeaderLen:]))
	}
	cases := map[string][]byte{
		"bad magic":        corrupt(func(c []byte) { c[0] = 'X' }),
		"bad version":      corrupt(func(c []byte) { c[4] = 9 }),
		"crc mismatch":     corrupt(func(c []byte) { c[len(c)-1] ^= 0xFF }),
		"truncated header": valid[:claimFrameHeaderLen-1],
		"truncated body":   valid[:len(valid)-3],
		"hostile length": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[5:9], maxClaimFramePayload+1)
		}),
		"hostile claim count": corrupt(func(c []byte) {
			// claim count sits right after the 6-byte uvarint'd client ID
			c[claimFrameHeaderLen+7] = 0xFF
			refixCRC(c)
		}),
		"non-minimal varint": func() []byte {
			c := append([]byte{}, valid[:claimFrameHeaderLen]...)
			c = append(c, 0x86, 0x00) // the client ID's length 6, in two bytes
			c = append(c, valid[claimFrameHeaderLen+1:]...)
			binary.LittleEndian.PutUint32(c[5:9], uint32(len(c)-claimFrameHeaderLen))
			refixCRC(c)
			return c
		}(),
		"trailing payload bytes": func() []byte {
			c := append(append([]byte{}, valid...), 0xAB)
			binary.LittleEndian.PutUint32(c[5:9], uint32(len(c)-claimFrameHeaderLen))
			refixCRC(c)
			return c
		}(),
	}
	for name, data := range cases {
		f := GetClaimFrame()
		if err := DecodeClaimFrame(bytes.NewReader(data), f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: streaming decode err = %v, want ErrBadFrame", name, err)
		}
		if _, err := DecodeClaimFrameBytes(data, f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: bytes decode err = %v, want ErrBadFrame", name, err)
		}
		PutClaimFrame(f)
	}

	f := GetClaimFrame()
	defer PutClaimFrame(f)
	if err := DecodeClaimFrame(bytes.NewReader(nil), f); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestDecodeClaimFrameBytesTrailingGarbage pins the longest-valid-prefix
// contract the journal decoder also honors: junk after a valid frame
// never costs the frame.
func TestDecodeClaimFrameBytesTrailingGarbage(t *testing.T) {
	frame := AppendClaimFrame(nil, "dev", []Claim{{Object: 4, Value: 8}})
	data := append(append([]byte{}, frame...), "\xff\xfe garbage tail"...)
	f := GetClaimFrame()
	defer PutClaimFrame(f)
	n, err := DecodeClaimFrameBytes(data, f)
	if err != nil {
		t.Fatalf("garbage tail cost a valid frame: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d bytes, want %d", n, len(frame))
	}
	assertFrameEquals(t, "garbage-tail", f, "dev", []Claim{{Object: 4, Value: 8}})
}

// FuzzDecodeClaimFrame mirrors FuzzDecodeRecord for the request wire:
// the decoder must never panic on arbitrary bytes, both decoders must
// agree on validity, and appending garbage to a valid frame must never
// change what the prefix decodes to.
func FuzzDecodeClaimFrame(f *testing.F) {
	for _, g := range goldenFrames {
		if seed, err := os.ReadFile(filepath.Join("testdata", g.name)); err == nil {
			f.Add(seed)
			f.Add(seed[:len(seed)-2])                     // torn payload
			f.Add(append([]byte{}, seed[4:]...))          // missing magic
			f.Add(append(append([]byte{}, seed...), 0x7)) // trailing junk
		}
	}
	f.Add([]byte("PTDC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := GetClaimFrame()
		defer PutClaimFrame(fr)
		n, err := DecodeClaimFrameBytes(data, fr)

		fs := GetClaimFrame()
		defer PutClaimFrame(fs)
		errStream := DecodeClaimFrame(bytes.NewReader(data), fs)
		if (err == nil) != (errStream == nil) {
			t.Fatalf("decoders disagree: bytes err = %v, stream err = %v", err, errStream)
		}
		if err != nil {
			return
		}
		if n < claimFrameHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if string(fr.ClientID) != string(fs.ClientID) || len(fr.Claims) != len(fs.Claims) {
			t.Fatalf("decoders disagree on content: %q/%d vs %q/%d",
				fr.ClientID, len(fr.Claims), fs.ClientID, len(fs.Claims))
		}
		// A garbage tail never costs the valid prefix, and never changes
		// what it decodes to.
		id := string(fr.ClientID)
		claims := append([]stream.Claim{}, fr.Claims...)
		torn := append(append([]byte{}, data[:n]...), "\xff\x00 torn-write-junk"...)
		n2, err2 := DecodeClaimFrameBytes(torn, fr)
		if err2 != nil || n2 != n {
			t.Fatalf("garbage tail changed the prefix: n %d->%d, err %v", n, n2, err2)
		}
		if string(fr.ClientID) != id || len(fr.Claims) != len(claims) {
			t.Fatalf("garbage tail changed decoded content")
		}
		for i := range claims {
			if claims[i].Object != fr.Claims[i].Object ||
				math.Float64bits(claims[i].Value) != math.Float64bits(fr.Claims[i].Value) {
				t.Fatalf("claim %d drifted under garbage tail", i)
			}
		}
	})
}

// FuzzDecodeClaimsJSON fuzzes the JSON claims decoder for the one thing
// pooling can break: a frame that has held another request must decode a
// body to exactly what a fresh frame decodes it to — same verdict, same
// client ID, same claims bit for bit — however many more claims, and
// whatever field values, its previous occupant left behind.
//
// Run as a CI smoke with: go test -fuzz FuzzDecodeClaimsJSON -fuzztime 10s
func FuzzDecodeClaimsJSON(f *testing.F) {
	const occupant = `{"clientId":"the-previous-occupant","claims":[` +
		`{"object":9,"value":9.5},{"object":8,"value":-8.5},{"object":7,"value":7.5},{"object":6,"value":6.5}]}`
	f.Add([]byte(`{"clientId":"a","claims":[{"object":1,"value":2.5}]}`))
	f.Add([]byte(`{"clientId":"a","claims":[{"object":1},{"value":3},{}]}`)) // omitted fields must read as zero
	f.Add([]byte(`{"claims":[{"object":1,"value":2}],"claims":[{}]}`))       // a key twice
	f.Add([]byte(`{"clientId":"a","claims":null}`))
	f.Add([]byte(`{"clientId":"a","claims":[{"object":1,"value":2}]} trailing`))
	f.Add([]byte(`{"clientId":"a","claims":[{"object":1,"value":1e999}]}`))
	f.Add([]byte(occupant))
	f.Add([]byte("{nope"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := new(ClaimFrame)
		errFresh := fresh.decodeJSON(bytes.NewReader(data))
		reused := new(ClaimFrame)
		if err := reused.decodeJSON(bytes.NewReader([]byte(occupant))); err != nil || len(reused.Claims) != 4 {
			t.Fatalf("seeding the reused frame: %v (%d claims)", err, len(reused.Claims))
		}
		errReused := reused.decodeJSON(bytes.NewReader(data))
		if (errFresh == nil) != (errReused == nil) {
			t.Fatalf("verdicts differ: fresh %v, reused %v", errFresh, errReused)
		}
		if errFresh != nil {
			return
		}
		if string(fresh.ClientID) != string(reused.ClientID) || len(fresh.Claims) != len(reused.Claims) {
			t.Fatalf("fresh frame decoded %q/%d claims, reused %q/%d",
				fresh.ClientID, len(fresh.Claims), reused.ClientID, len(reused.Claims))
		}
		for i, c := range fresh.Claims {
			r := reused.Claims[i]
			if c.Object != r.Object || math.Float64bits(c.Value) != math.Float64bits(r.Value) {
				t.Fatalf("claim %d: fresh %+v, reused %+v", i, c, r)
			}
		}
	})
}

// TestBinaryIngestZeroAlloc is the hot-path contract the pooled decode
// exists for: in steady state, decoding a frame and ingesting its
// claims performs zero heap allocations per operation — the frame, the
// scratch partitions, and the per-shard claim slices all come from
// pools, and the user ID is only materialized on first admission.
func TestBinaryIngestZeroAlloc(t *testing.T) {
	engine, err := stream.New(stream.Config{NumObjects: 16, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = engine.Close() }()

	claims := make([]Claim, 16)
	for i := range claims {
		claims[i] = Claim{Object: i, Value: float64(i) + 0.5}
	}
	frame := AppendClaimFrame(nil, "device-000", claims)

	fr := GetClaimFrame()
	defer PutClaimFrame(fr)
	op := func() {
		if _, err := DecodeClaimFrameBytes(frame, fr); err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.IngestBytes(fr.ClientID, fr.Claims); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every pool (frame buffers, ingest scratch, per-shard claim
	// slices) and intern the user before measuring.
	for i := 0; i < 100; i++ {
		op()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	if raceEnabled {
		// sync.Pool drops a share of its Puts under the race detector, so
		// the pooled path allocates there; the loop above still ran.
		t.Log("race detector on: skipping the 0 allocs/op pin")
		return
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("pooled binary ingest allocates %d times per op, want 0\n%s %s",
			allocs, res.String(), res.MemString())
	}
}

// TestDecodeJSONIntoReusedFrame: the JSON wire decodes into the pooled
// frame's reused buffers. A claim omitting a field must read zero, not
// what an earlier request left in that slot of the claim slice, and the
// client ID must be the new request's.
func TestDecodeJSONIntoReusedFrame(t *testing.T) {
	f := GetClaimFrame()
	defer PutClaimFrame(f)
	if err := f.decodeJSON(strings.NewReader(`{"clientId":"first-user","claims":[{"object":3,"value":40},{"object":4,"value":41}]}`)); err != nil {
		t.Fatal(err)
	}
	assertFrameEquals(t, "first", f, "first-user", []Claim{{Object: 3, Value: 40}, {Object: 4, Value: 41}})
	first := &f.Claims[0]
	if err := f.decodeJSON(strings.NewReader(`{"clientId":"b","claims":[{"object":1},{"value":2}]}`)); err != nil {
		t.Fatal(err)
	}
	assertFrameEquals(t, "second", f, "b", []Claim{{Object: 1, Value: 0}, {Object: 0, Value: 2}})
	if first != &f.Claims[0] {
		t.Error("second decode did not reuse the frame's claim slice")
	}
	// The binary decoder takes the same frame back without trouble.
	if _, err := DecodeClaimFrameBytes(AppendClaimFrame(nil, "c", []Claim{{Object: 7, Value: 7}}), f); err != nil {
		t.Fatal(err)
	}
	assertFrameEquals(t, "third", f, "c", []Claim{{Object: 7, Value: 7}})
	if err := f.decodeJSON(strings.NewReader(`{nope`)); err == nil {
		t.Error("undecodable JSON decoded")
	}
}
