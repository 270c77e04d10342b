package stream

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// mergeTestState builds one worker's export with the given users (one
// stat per user on object 0).
func mergeTestState(est string, window int, numObjects int, users ...string) *EngineState {
	st := &EngineState{NumObjects: numObjects, Window: window, Estimator: est}
	for _, id := range users {
		st.Users = append(st.Users, UserSnapshot{ID: id, LastWindow: -1})
		st.Stats = append(st.Stats, StatSnapshot{Object: 0, User: id, Sum: 1, Mass: 1})
	}
	return st
}

func TestMergeStatesRejectsTornInputs(t *testing.T) {
	cases := []struct {
		name    string
		parts   []*EngineState
		wantErr error
	}{
		{
			name:    "no parts",
			parts:   nil,
			wantErr: ErrBadState,
		},
		{
			name:    "nil part",
			parts:   []*EngineState{mergeTestState(EstimatorCRH, 2, 3, "a"), nil},
			wantErr: ErrBadState,
		},
		{
			name: "estimator mismatch",
			parts: []*EngineState{
				mergeTestState(EstimatorCRH, 2, 3, "a"),
				mergeTestState(EstimatorGTM, 2, 3, "b"),
			},
			wantErr: ErrEstimatorMismatch,
		},
		{
			name: "window mismatch (torn close)",
			parts: []*EngineState{
				mergeTestState(EstimatorCRH, 2, 3, "a"),
				mergeTestState(EstimatorCRH, 3, 3, "b"),
			},
			wantErr: ErrBadState,
		},
		{
			name: "object-space mismatch",
			parts: []*EngineState{
				mergeTestState(EstimatorCRH, 2, 3, "a"),
				mergeTestState(EstimatorCRH, 2, 4, "b"),
			},
			wantErr: ErrBadState,
		},
		{
			name: "user on two workers",
			parts: []*EngineState{
				mergeTestState(EstimatorCRH, 2, 3, "a", "b"),
				mergeTestState(EstimatorCRH, 2, 3, "b"),
			},
			wantErr: ErrBadState,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MergeStates(tc.parts); !errors.Is(err, tc.wantErr) {
				t.Fatalf("MergeStates: err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestMergeStatesCanonicalOrderAndCounters(t *testing.T) {
	// An empty estimator string means CRH (the config default) and must
	// merge with an explicit CRH part.
	a := mergeTestState("", 1, 2, "u2")
	a.Stats = []StatSnapshot{{Object: 1, User: "u2", Sum: 4, Mass: 1}, {Object: 0, User: "u2", Sum: 3, Mass: 1}}
	a.WindowClaims, a.TotalClaims = 2, 7
	b := mergeTestState(EstimatorCRH, 1, 2, "u1")
	b.Stats = []StatSnapshot{{Object: 0, User: "u1", Sum: 1, Mass: 1}}
	b.WindowClaims, b.TotalClaims = 1, 5

	merged, err := MergeStates([]*EngineState{a, b})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.WindowClaims != 3 || merged.TotalClaims != 12 {
		t.Fatalf("claim counters = %d/%d, want 3/12", merged.WindowClaims, merged.TotalClaims)
	}
	if len(merged.Users) != 2 || len(merged.Stats) != 3 {
		t.Fatalf("merged %d users / %d stats, want 2/3", len(merged.Users), len(merged.Stats))
	}
	for i := 1; i < len(merged.Stats); i++ {
		prev, cur := merged.Stats[i-1], merged.Stats[i]
		if prev.Object > cur.Object || (prev.Object == cur.Object && prev.User >= cur.User) {
			t.Fatalf("stats not in canonical (object, user) order: %+v before %+v", prev, cur)
		}
	}
}

// TestMergedDuplicateStatRefusedByRestore: a worker's close response
// comes from another process, and its encoding does not forbid listing
// one (object, user) statistic twice. MergeStates carries both through; Restore must refuse
// the merged state naming the pair, before anything mutates, instead of
// keeping whichever came last.
func TestMergedDuplicateStatRefusedByRestore(t *testing.T) {
	bad := mergeTestState(EstimatorCRH, 1, 3, "a")
	bad.Stats = append(bad.Stats, StatSnapshot{Object: 0, User: "a", Sum: 5, Mass: 1})
	merged, err := MergeStates([]*EngineState{bad, mergeTestState(EstimatorCRH, 1, 3, "b")})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	e, err := New(Config{NumObjects: 3, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	err = e.Restore(merged)
	if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), `(0, "a")`) {
		t.Fatalf("Restore of a merged state with a repeated statistic = %v, want ErrBadState naming (0, \"a\")", err)
	}
	// The refusal left the engine fresh: the honest merge still restores.
	good, err := MergeStates([]*EngineState{mergeTestState(EstimatorCRH, 1, 3, "a"), mergeTestState(EstimatorCRH, 1, 3, "b")})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := e.Restore(good); err != nil {
		t.Fatalf("Restore after a refused one: %v", err)
	}
	if st, err := e.ExportState(); err != nil || len(st.Stats) != 2 {
		t.Fatalf("export after restore = %+v, %v; want the two merged statistics", st, err)
	}
}

// TestCommitCarryAllOrNothing: a commit refused at its k-th carry — a
// negative or NaN carry, an empty ID — leaves the engine exactly as it
// found it: the carries before k are not applied, and the user at k
// keeps their carry.
func TestCommitCarryAllOrNothing(t *testing.T) {
	for _, est := range []string{EstimatorCRH, EstimatorGTM} {
		t.Run(est, func(t *testing.T) {
			e, err := New(Config{NumObjects: 3, NumShards: 2, Estimator: est})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			for u := 0; u < 4; u++ {
				claims := []Claim{{Object: u % 3, Value: float64(u)}, {Object: (u + 1) % 3, Value: 1}}
				if _, _, err := e.Ingest(fmt.Sprintf("u%d", u), claims); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.CloseWindow(); err != nil {
				t.Fatal(err)
			}
			before, err := e.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			good := func(id string) UserCarry { return UserCarry{ID: id, Carry: 7.5} }
			bad := map[string]UserCarry{
				"negative carry": {ID: "u2", Carry: -1},
				"NaN carry":      {ID: "u2", Carry: math.NaN()},
				"empty ID":       {ID: "", Carry: 1},
			}
			for name, carry := range bad {
				err := e.CommitCarry([]UserCarry{good("u0"), good("u1"), carry, good("u3")})
				if !errors.Is(err, ErrBadState) {
					t.Fatalf("%s: CommitCarry = %v, want ErrBadState", name, err)
				}
				if after, err := e.ExportState(); err != nil || !reflect.DeepEqual(after, before) {
					t.Fatalf("%s: refused commit changed the engine:\n got %+v, %v\nwant %+v", name, after, err, before)
				}
			}
			// The same carries, all good, do change it.
			if err := e.CommitCarry([]UserCarry{good("u0"), good("u1"), good("u2"), good("u3")}); err != nil {
				t.Fatal(err)
			}
			if after, err := e.ExportState(); err != nil || reflect.DeepEqual(after, before) {
				t.Fatalf("accepted commit left the engine unchanged: %v", err)
			}
		})
	}
}

// replayBenchJournal synthesizes a journal of users×windows charge
// records with claims, in append order.
func replayBenchJournal(users, windows, numObjects int) []ChargeRecord {
	var recs []ChargeRecord
	for w := 0; w < windows; w++ {
		for u := 0; u < users; u++ {
			var claims []Claim
			for o := 0; o < numObjects; o++ {
				if (u+o)%3 == 0 {
					continue
				}
				claims = append(claims, Claim{Object: o, Value: math.Sin(float64(u*17 + o*5 + w*11))})
			}
			recs = append(recs, ChargeRecord{
				User:    fmt.Sprintf("user-%04d", u),
				Window:  w,
				Epsilon: 0.25,
				Claims:  claims,
			})
		}
	}
	return recs
}

// BenchmarkReplayJournal measures crash-recovery replay of a long
// journal: ten windows of claims with the closes between them re-run.
func BenchmarkReplayJournal(b *testing.B) {
	recs := replayBenchJournal(400, 10, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Config{NumObjects: 64, NumShards: 4, Lambda1: 0.5, Lambda2: 1.0, Delta: 1e-5, Decay: 0.9, ClaimWAL: true, Ledger: nopLedger{}})
		if err != nil {
			b.Fatalf("engine: %v", err)
		}
		b.StartTimer()
		if _, err := e.ReplayJournal(recs); err != nil {
			b.Fatalf("replay: %v", err)
		}
		b.StopTimer()
		_ = e.Close()
		b.StartTimer()
	}
}
