package streamstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pptd/internal/randx"
	"pptd/internal/stream"
)

func mustEngine(t *testing.T, cfg stream.Config) *stream.Engine {
	t.Helper()
	e, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSnapshotCadenceEveryN: with SnapshotEvery 3, only every third
// window close writes a snapshot; the journal covers the gap.
func TestSnapshotCadenceEveryN(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	e := mustEngine(t, stream.Config{NumObjects: 1, NumShards: 1})
	defer func() { _ = e.Close() }()

	snapPath := filepath.Join(dir, snapshotName)
	for close := 1; close <= 6; close++ {
		if _, _, err := e.Ingest(fmt.Sprintf("u%d", close), []stream.Claim{{Object: 0, Value: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CloseWindow(); err != nil {
			t.Fatal(err)
		}
		wrote, err := s.MaybeSnapshotEngine(e)
		if err != nil {
			t.Fatal(err)
		}
		wantWrite := close%3 == 0
		if wrote != wantWrite {
			t.Errorf("close %d: wrote = %v, want %v", close, wrote, wantWrite)
		}
		if _, err := os.Stat(snapPath); (err == nil) != (close >= 3) {
			t.Errorf("close %d: snapshot existence = %v", close, err == nil)
		}
	}
}

// latestResult is the newest persisted window result (the last of
// LoadResultHistory), nil when none was ever saved.
func latestResult(s *Store) (*stream.WindowResult, error) {
	hist, err := s.LoadResultHistory()
	if err != nil || len(hist) == 0 {
		return nil, err
	}
	return hist[len(hist)-1], nil
}

// TestResultRoundTrip persists a window result — including an uncovered
// object, whose NaN truth JSON cannot carry — and loads it back across
// a store reopen.
func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if res, err := latestResult(s); err != nil || res != nil {
		t.Fatalf("latest result on fresh dir = %+v, %v", res, err)
	}
	res := &stream.WindowResult{
		Window:       3,
		Truths:       []float64{1.5, math.NaN()},
		Covered:      []bool{true, false},
		Weights:      map[string]float64{"alice": 2.25},
		Iterations:   5,
		Converged:    true,
		ActiveUsers:  1,
		WindowClaims: 4,
		TotalClaims:  12,
		Privacy:      &stream.PrivacyReport{EpsilonPerWindow: 0.5, MaxCumulative: 1.5},
	}
	if err := s.SaveResult(res); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	got, err := latestResult(re)
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != 3 || got.Truths[0] != 1.5 || !math.IsNaN(got.Truths[1]) ||
		!got.Covered[0] || got.Covered[1] {
		t.Errorf("result = %+v", got)
	}
	if got.Privacy == nil || got.Privacy.MaxCumulative != 1.5 {
		t.Errorf("result detail = %+v privacy %+v", got, got.Privacy)
	}
	// Per-user weights are not persisted: the file is O(objects).
	if got.Weights != nil {
		t.Errorf("persisted result carried weights %v", got.Weights)
	}
}

// TestResultWrittenWithWeightsStillLoads: testdata/result-with-weights.json
// is a result.json the last commit that persisted per-user weights wrote.
// It loads with the same truths and counts — the Weights key is simply
// unknown now — and saving it again writes the O(objects) shape.
func TestResultWrittenWithWeightsStillLoads(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "result-with-weights.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, resultName)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer func() { _ = s.Close() }()
	check := func(label string) *stream.WindowResult {
		t.Helper()
		got, err := latestResult(s)
		if err != nil || got == nil {
			t.Fatalf("%s: latest result = %+v, %v", label, got, err)
		}
		if got.Window != 7 || got.Estimator != "crh" || got.ActiveUsers != 3 || got.TotalClaims != 63 ||
			got.Privacy == nil || got.Privacy.MaxCumulative != 3.5 {
			t.Errorf("%s: result = %+v privacy %+v", label, got, got.Privacy)
		}
		want := []float64{1.5, math.NaN(), -0.25, 1e-3}
		for i, w := range want {
			if got.Truths[i] != w && !(math.IsNaN(w) && math.IsNaN(got.Truths[i])) {
				t.Errorf("%s: truth[%d] = %v, want %v", label, i, got.Truths[i], w)
			}
		}
		if got.Weights != nil {
			t.Errorf("%s: loaded weights %v", label, got.Weights)
		}
		return got
	}
	if !bytes.Contains(old, []byte(`"Weights":{"alice"`)) {
		t.Fatal("testdata no longer holds the old shape")
	}
	if err := s.SaveResult(check("old shape")); err != nil {
		t.Fatal(err)
	}
	check("rewritten")
	if now, err := os.ReadFile(path); err != nil || bytes.Contains(now, []byte("Weights")) {
		t.Errorf("rewritten result.json = %s, %v", now, err)
	}
}

// TestCorruptResultFailsLoudly mirrors the snapshot contract: results
// are written atomically, so a bad checksum means disk damage and must
// surface as ErrCorruptResult rather than silently serving garbage.
func TestCorruptResultFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.SaveResult(&stream.WindowResult{Window: 1, Truths: []float64{1}, Covered: []bool{true}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, resultName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	if _, err := latestResult(re); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("latest result on corrupt file = %v, want ErrCorruptResult", err)
	}
}

// TestRecoverClaimWALNoSnapshot is the crash drill the claim WAL was
// built for: the process dies mid-window having NEVER written a
// snapshot, and Recover must rebuild the engine — budgets, statistics,
// intermediate closes — from the journal alone, so the next close
// matches an uninterrupted engine within 1e-9.
func TestRecoverClaimWALNoSnapshot(t *testing.T) {
	const (
		numObjects = 5
		numUsers   = 7
		tol        = 1e-9
	)
	cfg := stream.Config{
		NumObjects: numObjects,
		NumShards:  2,
		Decay:      0.9,
		Lambda1:    1.5,
		Lambda2:    2,
		Delta:      0.3,
	}
	rng := randx.New(41)
	windows := make([][][]stream.Claim, 3)
	for w := range windows {
		windows[w] = make([][]stream.Claim, numUsers)
		for u := range windows[w] {
			claims := make([]stream.Claim, numObjects)
			for obj := range claims {
				claims[obj] = stream.Claim{Object: obj, Value: 10*rng.Float64() - 5}
			}
			windows[w][u] = claims
		}
	}
	ingest := func(t *testing.T, e *stream.Engine, w int) {
		t.Helper()
		for u, claims := range windows[w] {
			if _, _, err := e.Ingest(fmt.Sprintf("user-%d", u), claims); err != nil {
				t.Fatalf("window %d user %d: %v", w, u, err)
			}
		}
	}

	// Reference: uninterrupted, memory only.
	ref := mustEngine(t, cfg)
	defer func() { _ = ref.Close() }()
	var want *stream.WindowResult
	var err error
	for w := range windows {
		ingest(t, ref, w)
		if want, err = ref.CloseWindow(); err != nil {
			t.Fatal(err)
		}
	}

	// Durable run: claim WAL on, no snapshot ever, killed mid-window 3.
	dir := t.TempDir()
	store := mustOpen(t, dir)
	durCfg := cfg
	durCfg.Ledger = store
	durCfg.ClaimWAL = true
	dur := mustEngine(t, durCfg)
	for w := 0; w < 2; w++ {
		ingest(t, dur, w)
		if _, err := dur.CloseWindow(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(t, dur, 2)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := mustOpen(t, dir)
	defer func() { _ = store2.Close() }()
	recCfg := cfg
	recCfg.Ledger = store2
	recCfg.ClaimWAL = true
	rec := mustEngine(t, recCfg)
	defer func() { _ = rec.Close() }()
	found, err := store2.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("Recover found no state")
	}
	got, err := rec.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != want.Window || got.TotalClaims != want.TotalClaims {
		t.Fatalf("recovered window/claims = %d/%d, want %d/%d",
			got.Window, got.TotalClaims, want.Window, want.TotalClaims)
	}
	for n := range want.Truths {
		if got.Covered[n] != want.Covered[n] {
			t.Fatalf("object %d covered mismatch", n)
		}
		if want.Covered[n] && math.Abs(got.Truths[n]-want.Truths[n]) > tol {
			t.Errorf("object %d truth differs by %g", n, math.Abs(got.Truths[n]-want.Truths[n]))
		}
	}
	for id, w := range want.Weights {
		if math.Abs(got.Weights[id]-w) > tol {
			t.Errorf("weight %s differs by %g", id, math.Abs(got.Weights[id]-w))
		}
	}
	if math.Abs(got.Privacy.MaxCumulative-want.Privacy.MaxCumulative) > tol {
		t.Errorf("MaxCumulative = %v, want %v", got.Privacy.MaxCumulative, want.Privacy.MaxCumulative)
	}
}

// TestRecoverAdvancesPastResultOnlyClose is the cadence crash window:
// a window closes (result persisted), the snapshot is skipped by
// SnapshotEvery, and the process dies before any further traffic. The
// close then has no journal record postdating it — only result.json
// proves it happened — and recovery must fast-forward the counter to
// it: the returning user joins the next window instead of being 409'd
// as a duplicate, the window numbering never regresses, and with decay
// enabled the skipped close's decay is re-applied so the next estimate
// matches an uninterrupted engine within 1e-9.
func TestRecoverAdvancesPastResultOnlyClose(t *testing.T) {
	const tol = 1e-9
	cfg := stream.Config{
		NumObjects: 2,
		NumShards:  2,
		Decay:      0.8,
		Lambda1:    1,
		Lambda2:    2,
		Delta:      0.3,
	}
	claims := func(a, b float64) []stream.Claim {
		return []stream.Claim{{Object: 0, Value: a}, {Object: 1, Value: b}}
	}

	// Reference: uninterrupted.
	ref := mustEngine(t, cfg)
	defer func() { _ = ref.Close() }()
	if _, _, err := ref.Ingest("alice", claims(1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.Ingest("alice", claims(2, 5)); err != nil {
		t.Fatal(err)
	}
	want, err := ref.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}

	// Durable run: the close's snapshot is skipped (SnapshotEvery 2),
	// then the process dies with the close provable only from result.json.
	dir := t.TempDir()
	store, err := OpenWith(dir, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	durCfg := cfg
	durCfg.Ledger = store
	durCfg.ClaimWAL = true
	dur := mustEngine(t, durCfg)
	if _, _, err := dur.Ingest("alice", claims(1, 4)); err != nil {
		t.Fatal(err)
	}
	res, err := dur.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveResult(res); err != nil {
		t.Fatal(err)
	}
	if wrote, err := store.MaybeSnapshotEngine(dur); err != nil || wrote {
		t.Fatalf("snapshot wrote = %v, %v; want skipped by cadence", wrote, err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenWith(dir, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store2.Close() }()
	recCfg := cfg
	recCfg.Ledger = store2
	recCfg.ClaimWAL = true
	rec := mustEngine(t, recCfg)
	defer func() { _ = rec.Close() }()
	if _, err := store2.Recover(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Window() != 1 {
		t.Fatalf("recovered window counter = %d, want 1 (the result-only close)", rec.Window())
	}
	// Alice joins window 2 — not a duplicate of the re-opened window 1.
	if _, _, err := rec.Ingest("alice", claims(2, 5)); err != nil {
		t.Fatalf("alice rejoining after the recovered close: %v", err)
	}
	got, err := rec.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != want.Window {
		t.Fatalf("recovered close published window %d, want %d", got.Window, want.Window)
	}
	for n := range want.Truths {
		if math.Abs(got.Truths[n]-want.Truths[n]) > tol {
			t.Errorf("object %d truth differs by %g", n, math.Abs(got.Truths[n]-want.Truths[n]))
		}
	}
	for id, w := range want.Weights {
		if math.Abs(got.Weights[id]-w) > tol {
			t.Errorf("weight %s differs by %g", id, math.Abs(got.Weights[id]-w))
		}
	}
}

// TestRecoverSeedsLastResult: Recover must hand the persisted result to
// the engine so the previous estimate is immediately servable, and an
// empty directory must recover nothing.
func TestRecoverSeedsLastResult(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	e := mustEngine(t, stream.Config{NumObjects: 1, NumShards: 1})
	found, err := s.Recover(e)
	if err != nil || found {
		t.Fatalf("Recover on empty dir = %v, %v; want false, nil", found, err)
	}
	if _, _, err := e.Ingest("a", []stream.Claim{{Object: 0, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveResult(res); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapshotEngine(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer func() { _ = re.Close() }()
	e2 := mustEngine(t, stream.Config{NumObjects: 1, NumShards: 1})
	defer func() { _ = e2.Close() }()
	found, err = re.Recover(e2)
	if err != nil || !found {
		t.Fatalf("Recover = %v, %v; want true, nil", found, err)
	}
	snap := e2.Snapshot()
	if snap == nil || snap.Window != 1 || snap.Truths[0] != 2 {
		t.Fatalf("recovered last result = %+v, want window 1 truth 2", snap)
	}
}
