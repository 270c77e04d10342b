package streamstore

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pptd/internal/randx"
	"pptd/internal/stream"
)

// TestKillAndRecoverThroughStore is the end-to-end crash drill over the
// real serialization path: an engine journals charges through the store
// and snapshots at every window close; after a "kill" (the engine is
// dropped with no further persistence) a new engine recovered via
// Recover must produce the same next-window truths and weights as an
// uninterrupted engine over identical traffic, within 1e-9, and a user
// who exhausted their budget before the kill must stay rejected.
func TestKillAndRecoverThroughStore(t *testing.T) {
	const (
		numObjects = 6
		numUsers   = 8
		numWindows = 3
		cutAfter   = 2
	)
	cfg := stream.Config{
		NumObjects: numObjects,
		NumShards:  3,
		Decay:      0.9,
		Lambda1:    1.5,
		Lambda2:    2,
		Delta:      0.3,
	}

	// Deterministic per-window traffic shared by both runs.
	rng := randx.New(11)
	windows := make([][][]stream.Claim, numWindows)
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

	// Reference run: no interruption, no persistence.
	ref, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ref.Close() }()
	var want *stream.WindowResult
	for w := 0; w < numWindows; w++ {
		ingest(t, ref, w)
		if want, err = ref.CloseWindow(); err != nil {
			t.Fatal(err)
		}
	}

	// Durable run, killed after cutAfter windows.
	dir := t.TempDir()
	store := mustOpen(t, dir)
	durCfg := cfg
	durCfg.Ledger = store
	dur, err := stream.New(durCfg)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < cutAfter; w++ {
		ingest(t, dur, w)
		if _, err := dur.CloseWindow(); err != nil {
			t.Fatal(err)
		}
		if err := store.SnapshotEngine(dur); err != nil {
			t.Fatal(err)
		}
	}
	// The kill: shard workers stop, nothing else is persisted.
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery in a "new process".
	store2 := mustOpen(t, dir)
	defer func() { _ = store2.Close() }()
	recCfg := cfg
	recCfg.Ledger = store2
	rec, err := stream.New(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rec.Close() }()
	if found, err := store2.Recover(rec); err != nil || !found {
		t.Fatalf("Recover = %v, %v; want the persisted state", found, err)
	}

	var got *stream.WindowResult
	for w := cutAfter; w < numWindows; w++ {
		ingest(t, rec, w)
		if got, err = rec.CloseWindow(); err != nil {
			t.Fatal(err)
		}
	}
	const tol = 1e-9
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

// TestExhaustedUserStaysRejectedAfterCrash drives a budget to the cap,
// crashes WITHOUT ever writing a post-charge snapshot, and verifies the
// journal alone keeps the user rejected after recovery — including a
// charge that was newer than the last snapshot.
func TestExhaustedUserStaysRejectedAfterCrash(t *testing.T) {
	cfg := stream.Config{
		NumObjects: 1,
		NumShards:  1,
		Lambda1:    1,
		Lambda2:    2,
		Delta:      0.3,
	}
	eps, err := cfg.EpsilonPerWindow()
	if err != nil {
		t.Fatal(err)
	}
	cfg.EpsilonBudget = 2.5 * eps // affords exactly two windows

	dir := t.TempDir()
	store := mustOpen(t, dir)
	durCfg := cfg
	durCfg.Ledger = store
	e, err := stream.New(durCfg)
	if err != nil {
		t.Fatal(err)
	}
	claims := []stream.Claim{{Object: 0, Value: 1}}

	// Window 1: charge journaled, window closed, snapshot written.
	if _, _, err := e.Ingest("alice", claims); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if err := store.SnapshotEngine(e); err != nil {
		t.Fatal(err)
	}
	// Window 2 charge arrives AFTER the snapshot: alice now sits at the
	// cap, but only the journal knows. Crash before any further snapshot.
	if _, _, err := e.Ingest("alice", claims); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := mustOpen(t, dir)
	defer func() { _ = store2.Close() }()
	recCfg := cfg
	recCfg.Ledger = store2
	rec, err := stream.New(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rec.Close() }()
	if found, err := store2.Recover(rec); err != nil || !found {
		t.Fatalf("Recover = %v, %v; want the persisted state", found, err)
	}

	// Alice already released into the still-open window 2: duplicate.
	if _, _, err := rec.Ingest("alice", claims); !errors.Is(err, stream.ErrDuplicateWindow) {
		t.Fatalf("alice resubmitting the open window after crash = %v, want ErrDuplicateWindow", err)
	}
	// Fresh users keep the stream alive; once the window advances, alice
	// is out of budget — the journal-replayed charge holds.
	if _, _, err := rec.Ingest("bob", claims); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Ingest("alice", claims); !errors.Is(err, stream.ErrBudgetExhausted) {
		t.Fatalf("alice past the cap after crash recovery = %v, want ErrBudgetExhausted", err)
	}
}
