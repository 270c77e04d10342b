package stream

import (
	"errors"
	"math"
	"testing"

	"pptd/internal/randx"
)

func TestConfigRejectsClaimWALWithoutLedger(t *testing.T) {
	if _, err := New(Config{
		NumObjects: 1,
		Lambda1:    1,
		Lambda2:    2,
		Delta:      0.3,
		ClaimWAL:   true,
	}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("ClaimWAL without Ledger = %v, want ErrBadConfig", err)
	}
}

// TestClaimWALRecordsCarryClaims checks that the ledger record carries
// the submission's claims exactly when the claim WAL is on: one durable
// append covers both the charge and the statistics it paid for.
func TestClaimWALRecordsCarryClaims(t *testing.T) {
	for _, wal := range []bool{false, true} {
		led := &memLedger{}
		e, err := New(Config{
			NumObjects: 3,
			NumShards:  1,
			Lambda1:    1,
			Lambda2:    2,
			Delta:      0.3,
			Ledger:     led,
			ClaimWAL:   wal,
		})
		if err != nil {
			t.Fatal(err)
		}
		claims := []Claim{{Object: 0, Value: 1.5}, {Object: 2, Value: -3}}
		if _, _, err := e.Ingest("alice", claims); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if len(led.recs) != 1 {
			t.Fatalf("wal=%v: %d records, want 1", wal, len(led.recs))
		}
		rec := led.recs[0]
		if rec.User != "alice" || rec.Window != 0 || rec.Epsilon <= 0 {
			t.Errorf("wal=%v: record = %+v", wal, rec)
		}
		if !wal && rec.Claims != nil {
			t.Errorf("claims journaled without ClaimWAL: %+v", rec.Claims)
		}
		if wal {
			if len(rec.Claims) != len(claims) {
				t.Fatalf("journaled claims = %+v, want %+v", rec.Claims, claims)
			}
			for i, c := range claims {
				if rec.Claims[i] != c {
					t.Errorf("journaled claim %d = %+v, want %+v", i, rec.Claims[i], c)
				}
			}
		}
	}
}

// compareWindowResults asserts two window results agree within tol on
// everything the estimator publishes.
func compareWindowResults(t *testing.T, got, want *WindowResult, tol float64) {
	t.Helper()
	if got.Window != want.Window || got.TotalClaims != want.TotalClaims ||
		got.WindowClaims != want.WindowClaims || got.ActiveUsers != want.ActiveUsers {
		t.Fatalf("result metadata = window %d / %d claims (%d this window, %d users), want %d / %d (%d, %d)",
			got.Window, got.TotalClaims, got.WindowClaims, got.ActiveUsers,
			want.Window, want.TotalClaims, want.WindowClaims, want.ActiveUsers)
	}
	for n := range want.Truths {
		if got.Covered[n] != want.Covered[n] {
			t.Fatalf("object %d covered = %v, want %v", n, got.Covered[n], want.Covered[n])
		}
		if want.Covered[n] && math.Abs(got.Truths[n]-want.Truths[n]) > tol {
			t.Errorf("object %d truth differs by %g", n, math.Abs(got.Truths[n]-want.Truths[n]))
		}
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("weights for %d users, want %d", len(got.Weights), len(want.Weights))
	}
	for id, w := range want.Weights {
		if math.Abs(got.Weights[id]-w) > tol {
			t.Errorf("weight %s differs by %g", id, math.Abs(got.Weights[id]-w))
		}
	}
	if want.Privacy != nil {
		if got.Privacy == nil {
			t.Fatal("privacy report lost")
		}
		if math.Abs(got.Privacy.MaxCumulative-want.Privacy.MaxCumulative) > tol ||
			got.Privacy.MaxWindows != want.Privacy.MaxWindows ||
			got.Privacy.TrackedUsers != want.Privacy.TrackedUsers {
			t.Errorf("privacy = %+v, want %+v", got.Privacy, want.Privacy)
		}
	}
}

// TestReplayJournalReconstructsEngine is the claim WAL's reason to
// exist: an engine rebuilt from nothing but the journaled records —
// including the intermediate window closes the journal implies — must
// produce the same next-window estimate as the uninterrupted engine,
// even though no snapshot was ever written.
func TestReplayJournalReconstructsEngine(t *testing.T) {
	const (
		numObjects = 6
		numUsers   = 9
		numWindows = 3
		tol        = 1e-9
	)
	cfg := Config{
		NumObjects: numObjects,
		NumShards:  3,
		Decay:      0.85,
		Lambda1:    1.5,
		Lambda2:    2,
		Delta:      0.3,
	}
	led := &memLedger{}
	walCfg := cfg
	walCfg.Ledger = led
	walCfg.ClaimWAL = true
	live, err := New(walCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(23)
	for w := 0; w < numWindows; w++ {
		ingestWindow(t, live, windowBatches(rng, numUsers, numObjects))
		if w < numWindows-1 {
			// The final window stays open: the "crash" hits mid-window.
			if _, err := live.CloseWindow(); err != nil {
				t.Fatal(err)
			}
		}
	}

	rec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rec.Close() }()
	applied, err := rec.ReplayJournal(led.recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(led.recs) {
		t.Fatalf("applied %d of %d records", applied, len(led.recs))
	}
	if rec.Window() != live.Window() {
		t.Fatalf("replayed window counter = %d, want %d", rec.Window(), live.Window())
	}

	want, err := live.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := rec.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	compareWindowResults(t, got, want, tol)
}

// TestReplayJournalIdempotent feeds the same records twice (and once
// more on top of a snapshot that already covers them): budgets, claim
// counters, and statistics must not double-fold.
func TestReplayJournalIdempotent(t *testing.T) {
	recs := []ChargeRecord{
		{User: "alice", Window: 0, Epsilon: 0.5, Claims: []Claim{{Object: 0, Value: 2}}},
		{User: "bob", Window: 0, Epsilon: 0.5, Claims: []Claim{{Object: 1, Value: 4}}},
		{User: "alice", Window: 1, Epsilon: 0.5, Claims: []Claim{{Object: 0, Value: 6}}},
	}
	e, err := New(Config{NumObjects: 2, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for _, pass := range []int{1, 2} {
		applied, err := e.ReplayJournal(recs)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 1 && applied != len(recs) {
			t.Fatalf("first pass applied %d of %d", applied, len(recs))
		}
		if pass == 2 && applied != 0 {
			t.Fatalf("second pass re-applied %d records", applied)
		}
	}
	if e.Window() != 1 || e.TotalClaims() != 3 {
		t.Fatalf("window %d / %d claims, want 1 / 3", e.Window(), e.TotalClaims())
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Users) != 2 {
		t.Fatalf("users = %+v", st.Users)
	}
	if a := st.Users[0]; math.Abs(a.CumulativeEpsilon-1) > 1e-12 || a.LastWindow != 1 || a.Windows != 2 {
		t.Errorf("alice = %+v, want cum 1 over windows {0,1}", a)
	}

	// A restored snapshot that already covers the records: replay on top
	// must be a no-op too.
	re, err := New(Config{NumObjects: 2, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if err := re.Restore(st); err != nil {
		t.Fatal(err)
	}
	applied, err := re.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("replay over covering snapshot applied %d records", applied)
	}
	if re.TotalClaims() != 3 {
		t.Errorf("claims double-folded: %d", re.TotalClaims())
	}
}

// TestReplayJournalValidation checks that invalid records are skipped
// without creating a user, that a record is applied once per (user,
// window) whether the snapshot or an earlier record covers it, that a
// user the snapshot never saw is created, and that claims that no longer
// fit the engine fail loudly with ErrBadState.
func TestReplayJournalValidation(t *testing.T) {
	e, err := New(Config{NumObjects: 2, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if err := e.Restore(&EngineState{Window: 1, Users: []UserSnapshot{
		{ID: "alice", Carry: 1, CumulativeEpsilon: 1, LastWindow: 1, Windows: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	applied, err := e.ReplayJournal([]ChargeRecord{
		{User: "", Window: 1, Epsilon: 1},           // no user
		{User: "a", Window: -1, Epsilon: 1},         // bad window
		{User: "a", Window: 1, Epsilon: 0},          // no charge
		{User: "a", Window: 1, Epsilon: math.NaN()}, // non-finite
		{User: "alice", Window: 1, Epsilon: 0.5},    // covered by the snapshot
		{User: "ok", Window: 1, Epsilon: 0.5},       // fine, and new to the snapshot
		{User: "ok", Window: 1, Epsilon: 0.5},       // duplicated record
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied %d records, want 1 (the valid one)", applied)
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Users) != 2 {
		t.Fatalf("users after replay = %+v, want alice and ok (malformed records must not create users)", st.Users)
	}
	if a := st.Users[0]; a.ID != "alice" || a.CumulativeEpsilon != 1 || a.LastWindow != 1 || a.Windows != 2 {
		t.Errorf("alice after replay = %+v, want the snapshot's budget", a)
	}
	if u := st.Users[1]; u.ID != "ok" || u.CumulativeEpsilon != 0.5 || u.LastWindow != 1 || u.Windows != 1 || u.Carry != 1 {
		t.Errorf("ok after replay = %+v, want one charge at window 1", u)
	}
	if _, err := e.ReplayJournal([]ChargeRecord{
		{User: "b", Window: 1, Epsilon: 0.5, Claims: []Claim{{Object: 7, Value: 1}}},
	}); !errors.Is(err, ErrBadState) {
		t.Fatalf("out-of-range replay claim = %v, want ErrBadState", err)
	}
	if _, err := e.ReplayJournal([]ChargeRecord{
		{User: "c", Window: 1, Epsilon: 0.5, Claims: []Claim{{Object: 0, Value: math.Inf(1)}}},
	}); !errors.Is(err, ErrBadState) {
		t.Fatalf("non-finite replay claim = %v, want ErrBadState", err)
	}
}

// TestReplayedUserKeepsReleaseContract: a user whose charge was only in
// the journal must still be refused a duplicate submission into the
// re-opened window after replay.
func TestReplayedUserKeepsReleaseContract(t *testing.T) {
	led := &memLedger{}
	cfg := Config{
		NumObjects: 1,
		NumShards:  1,
		Lambda1:    1,
		Lambda2:    2,
		Delta:      0.3,
		Ledger:     led,
		ClaimWAL:   true,
	}
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.Ingest("alice", []Claim{{Object: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := New(Config{NumObjects: 1, NumShards: 1, Lambda1: 1, Lambda2: 2, Delta: 0.3, Ledger: &memLedger{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rec.Close() }()
	if _, err := rec.ReplayJournal(led.recs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Ingest("alice", []Claim{{Object: 0, Value: 2}}); !errors.Is(err, ErrDuplicateWindow) {
		t.Fatalf("replayed user resubmitting the open window = %v, want ErrDuplicateWindow", err)
	}
}
