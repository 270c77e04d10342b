package stream

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pptd/internal/randx"
)

// nopLedger is a Ledger that accepts every append (used to exercise
// config validation).
type nopLedger struct{}

func (nopLedger) AppendCharge(ChargeRecord) error { return nil }

// memLedger records appends in memory and can inject failures.
type memLedger struct {
	recs []ChargeRecord
	fail bool
}

func (l *memLedger) AppendCharge(rec ChargeRecord) error {
	if l.fail {
		return errors.New("injected ledger failure")
	}
	l.recs = append(l.recs, rec)
	return nil
}

// windowBatches generates the deterministic claim batches of one window:
// one batch per user over a random subset of objects (at least one, no
// duplicates), honoring the one-submission-per-window release contract.
func windowBatches(rng *randx.RNG, numUsers, numObjects int) map[string][]Claim {
	batches := make(map[string][]Claim, numUsers)
	for u := 0; u < numUsers; u++ {
		var claims []Claim
		for obj := 0; obj < numObjects; obj++ {
			if rng.Float64() < 0.7 {
				claims = append(claims, Claim{Object: obj, Value: 10*rng.Float64() - 5})
			}
		}
		if len(claims) == 0 {
			claims = append(claims, Claim{Object: rng.Intn(numObjects), Value: rng.Norm()})
		}
		batches[fmt.Sprintf("user-%02d", u)] = claims
	}
	return batches
}

func ingestWindow(t *testing.T, e *Engine, batches map[string][]Claim) {
	t.Helper()
	for u := 0; u < len(batches); u++ {
		id := fmt.Sprintf("user-%02d", u)
		if _, _, err := e.Ingest(id, batches[id]); err != nil {
			t.Fatalf("ingest %s: %v", id, err)
		}
	}
}

func sameWindowResult(t *testing.T, label string, want, got *WindowResult) {
	t.Helper()
	const tol = 1e-9
	if got.Window != want.Window {
		t.Errorf("%s: window = %d, want %d", label, got.Window, want.Window)
	}
	if got.TotalClaims != want.TotalClaims || got.WindowClaims != want.WindowClaims {
		t.Errorf("%s: claims = (%d, %d), want (%d, %d)", label,
			got.WindowClaims, got.TotalClaims, want.WindowClaims, want.TotalClaims)
	}
	for n := range want.Truths {
		if got.Covered[n] != want.Covered[n] {
			t.Fatalf("%s: object %d covered = %v, want %v", label, n, got.Covered[n], want.Covered[n])
		}
		if !want.Covered[n] {
			continue
		}
		if d := math.Abs(got.Truths[n] - want.Truths[n]); d > tol {
			t.Errorf("%s: object %d truth differs by %g", label, n, d)
		}
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%s: %d weights, want %d", label, len(got.Weights), len(want.Weights))
	}
	for id, w := range want.Weights {
		gw, ok := got.Weights[id]
		if !ok {
			t.Fatalf("%s: missing weight for %s", label, id)
		}
		if d := math.Abs(gw - w); d > tol {
			t.Errorf("%s: weight %s differs by %g", label, id, d)
		}
	}
	if want.Privacy != nil {
		if got.Privacy == nil {
			t.Fatalf("%s: missing privacy report", label)
		}
		if d := math.Abs(got.Privacy.MaxCumulative - want.Privacy.MaxCumulative); d > tol {
			t.Errorf("%s: MaxCumulative differs by %g", label, d)
		}
		if got.Privacy.MaxWindows != want.Privacy.MaxWindows {
			t.Errorf("%s: MaxWindows = %d, want %d", label, got.Privacy.MaxWindows, want.Privacy.MaxWindows)
		}
	}
}

// TestExportRestoreEquivalence is the kill-and-recover property: an
// engine exported mid-stream and restored into a fresh engine (possibly
// with a different shard count) must produce the same next-window truths
// and weights as the uninterrupted engine, within 1e-9, across seeds,
// decay settings, and shard counts.
func TestExportRestoreEquivalence(t *testing.T) {
	const (
		numObjects = 9
		numUsers   = 12
		numWindows = 4
		cutAfter   = 2 // windows closed before the "crash"
	)
	cases := []struct {
		shards, restoreShards int
		decay                 float64
	}{
		{1, 1, 1},
		{3, 3, 0.85},
		{4, 2, 1},
		{2, 5, 0.6},
	}
	for _, seed := range []uint64{1, 7, 42} {
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("seed=%d/shards=%d-%d/decay=%v", seed, tc.shards, tc.restoreShards, tc.decay), func(t *testing.T) {
				cfg := Config{
					NumObjects: numObjects,
					NumShards:  tc.shards,
					Decay:      tc.decay,
					Lambda1:    1.5,
					Lambda2:    2,
					Delta:      0.3,
				}

				// Pre-generate every window's batches so both engines see
				// byte-identical traffic.
				rng := randx.New(seed)
				windows := make([]map[string][]Claim, numWindows)
				for w := range windows {
					windows[w] = windowBatches(rng, numUsers, numObjects)
				}

				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = ref.Close() }()
				var want *WindowResult
				for w := 0; w < numWindows; w++ {
					ingestWindow(t, ref, windows[w])
					if want, err = ref.CloseWindow(); err != nil {
						t.Fatalf("ref close %d: %v", w, err)
					}
				}

				// The interrupted run: same traffic through cutAfter
				// windows, then export ("snapshot"), abandon, restore into
				// a fresh engine — possibly sharded differently — and
				// replay the remaining windows identically.
				cut, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for w := 0; w < cutAfter; w++ {
					ingestWindow(t, cut, windows[w])
					if _, err := cut.CloseWindow(); err != nil {
						t.Fatalf("cut close %d: %v", w, err)
					}
				}
				state, err := cut.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if err := cut.Close(); err != nil {
					t.Fatal(err)
				}

				restoreCfg := cfg
				restoreCfg.NumShards = tc.restoreShards
				rec, err := New(restoreCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = rec.Close() }()
				if err := rec.Restore(state); err != nil {
					t.Fatal(err)
				}
				if rec.Snapshot() != nil {
					t.Error("Snapshot after restore should be nil until the next close")
				}
				if rec.Window() != cutAfter {
					t.Fatalf("restored window = %d, want %d", rec.Window(), cutAfter)
				}
				var got *WindowResult
				for w := cutAfter; w < numWindows; w++ {
					ingestWindow(t, rec, windows[w])
					if got, err = rec.CloseWindow(); err != nil {
						t.Fatalf("recovered close %d: %v", w, err)
					}
				}
				sameWindowResult(t, "recovered vs uninterrupted", want, got)
			})
		}
	}
}

// TestExportStateDeterministic checks two exports of the same engine
// state are identical, including ordering, so snapshots are stable.
func TestExportStateDeterministic(t *testing.T) {
	e, err := New(Config{NumObjects: 7, NumShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	rng := randx.New(3)
	ingestWindow(t, e, windowBatches(rng, 6, 7))
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	a, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stats) == 0 || len(a.Users) == 0 {
		t.Fatalf("empty export: %d stats, %d users", len(a.Stats), len(a.Users))
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Error("two exports of the same state differ")
	}
	for i := 1; i < len(a.Stats); i++ {
		p, q := a.Stats[i-1], a.Stats[i]
		if p.Object > q.Object || (p.Object == q.Object && p.User >= q.User) {
			t.Fatalf("stats not sorted at %d: %+v then %+v", i, p, q)
		}
	}
}

// TestBudgetSurvivesRestore is the recovery half of budget enforcement:
// a user who exhausted their cumulative epsilon before the export must
// still be rejected with ErrBudgetExhausted after a restore.
func TestBudgetSurvivesRestore(t *testing.T) {
	cfg := Config{
		NumObjects: 2,
		NumShards:  1,
		Lambda1:    1,
		Lambda2:    2,
		Delta:      0.3,
	}
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := probe.EpsilonPerWindow()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.EpsilonBudget = 1.5 * eps // affords exactly one window

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	claims := []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}
	if _, _, err := e.Ingest("alice", claims); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Ingest("alice", claims); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("pre-restart over-budget ingest = %v, want ErrBudgetExhausted", err)
	}
	state, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = restored.Close() }()
	if err := restored.Restore(state); err != nil {
		t.Fatal(err)
	}
	if _, _, err := restored.Ingest("alice", claims); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-restart over-budget ingest = %v, want ErrBudgetExhausted", err)
	}
	if _, _, err := restored.Ingest("bob", claims); err != nil {
		t.Fatalf("fresh user after restore: %v", err)
	}
}

// TestLedgerDurabilityBeforeAck checks the acknowledgement contract: a
// submission succeeds only after its charge record reached the ledger,
// and a failed append rejects the submission AND rolls the in-memory
// charge back (no epsilon is spent on an unacknowledged release).
func TestLedgerDurabilityBeforeAck(t *testing.T) {
	led := &memLedger{}
	e, err := New(Config{
		NumObjects: 2,
		NumShards:  1,
		Lambda1:    1,
		Lambda2:    2,
		Delta:      0.3,
		Ledger:     led,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	eps := e.EpsilonPerWindow()
	claims := []Claim{{Object: 0, Value: 1}}

	// Failure first: no record, no charge, no acceptance.
	led.fail = true
	if _, _, err := e.Ingest("alice", claims); !errors.Is(err, ErrLedger) {
		t.Fatalf("ingest with failing ledger = %v, want ErrLedger", err)
	}
	if len(led.recs) != 0 {
		t.Fatalf("failing ledger recorded %d charges", len(led.recs))
	}

	// The rolled-back charge must leave alice able to retry the same
	// window once the ledger recovers.
	led.fail = false
	if _, _, err := e.Ingest("alice", claims); err != nil {
		t.Fatalf("retry after ledger recovery: %v", err)
	}
	if len(led.recs) != 1 {
		t.Fatalf("ledger holds %d records, want 1", len(led.recs))
	}
	rec := led.recs[0]
	if rec.User != "alice" || rec.Window != 0 || math.Abs(rec.Epsilon-eps) > 1e-12 {
		t.Fatalf("ledger record = %+v, want alice/window 0/eps %v", rec, eps)
	}

	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Privacy.MaxCumulative; math.Abs(got-eps) > 1e-12 {
		t.Fatalf("cumulative eps after rollback+retry = %v, want exactly %v", got, eps)
	}
	if res.Privacy.MaxWindows != 1 {
		t.Fatalf("MaxWindows = %d, want 1 (rollback must revert the window count)", res.Privacy.MaxWindows)
	}
}

// TestRestoreValidation checks Restore rejects inconsistent states and
// non-fresh engines.
func TestRestoreValidation(t *testing.T) {
	newEngine := func(t *testing.T) *Engine {
		t.Helper()
		e, err := New(Config{NumObjects: 3, NumShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		return e
	}
	cases := []struct {
		name  string
		state *EngineState
	}{
		{"nil", nil},
		{"negative window", &EngineState{Window: -1}},
		{"window beyond int32", &EngineState{Window: math.MaxInt32}},
		{"last window beyond int32", &EngineState{Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: math.MaxInt32}}}},
		{"windows beyond int32", &EngineState{Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: 0, Windows: math.MaxInt32 + 1}}}},
		{"empty user id", &EngineState{Users: []UserSnapshot{{ID: ""}}}},
		{"duplicate user", &EngineState{Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: -1}, {ID: "a", Carry: 1, LastWindow: -1}}}},
		{"bad carry", &EngineState{Users: []UserSnapshot{{ID: "a", Carry: math.NaN(), LastWindow: -1}}}},
		{"negative cumeps", &EngineState{Users: []UserSnapshot{{ID: "a", Carry: 1, CumulativeEpsilon: -1, LastWindow: -1}}}},
		{"object out of range", &EngineState{
			Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: -1}},
			Stats: []StatSnapshot{{Object: 3, User: "a", Sum: 1, Mass: 1}},
		}},
		{"unknown stat user", &EngineState{
			Stats: []StatSnapshot{{Object: 0, User: "ghost", Sum: 1, Mass: 1}},
		}},
		{"non-positive mass", &EngineState{
			Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: -1}},
			Stats: []StatSnapshot{{Object: 0, User: "a", Sum: 1, Mass: 0}},
		}},
		{"duplicate stat", &EngineState{
			Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: -1}},
			Stats: []StatSnapshot{{Object: 0, User: "a", Sum: 1, Mass: 1}, {Object: 0, User: "a", Sum: 5, Mass: 1}},
		}},
		{"duplicate stat, apart and out of order", &EngineState{
			Users: []UserSnapshot{{ID: "a", Carry: 1, LastWindow: -1}},
			Stats: []StatSnapshot{{Object: 2, User: "a", Sum: 1, Mass: 1}, {Object: 0, User: "a", Sum: 1, Mass: 1}, {Object: 2, User: "a", Sum: 5, Mass: 1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t)
			if err := e.Restore(tc.state); !errors.Is(err, ErrBadState) {
				t.Errorf("Restore(%s) = %v, want ErrBadState", tc.name, err)
			}
		})
	}

	// A non-fresh engine refuses a restore.
	e := newEngine(t)
	if _, _, err := e.Ingest("u", []Claim{{Object: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(&EngineState{}); !errors.Is(err, ErrBadState) {
		t.Errorf("Restore into used engine = %v, want ErrBadState", err)
	}

	// And a closed engine reports ErrEngineClosed for both hooks.
	closed := newEngine(t)
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := closed.ExportState(); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("ExportState after Close = %v", err)
	}
	if err := closed.Restore(&EngineState{}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Restore after Close = %v", err)
	}
}
