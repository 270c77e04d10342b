package stream

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"pptd/internal/randx"
	"pptd/internal/truth"
)

// estimatorsUnderTest returns the estimators the property tests cover:
// all of them, unless PPTD_STREAM_ESTIMATOR narrows the run to one (the
// CI race/crash jobs loop the suite once per estimator this way).
func estimatorsUnderTest(t *testing.T) []string {
	t.Helper()
	env := os.Getenv("PPTD_STREAM_ESTIMATOR")
	if env == "" {
		return EstimatorNames
	}
	if !KnownEstimator(env) {
		t.Fatalf("PPTD_STREAM_ESTIMATOR = %q: want one of %v", env, EstimatorNames)
	}
	return []string{env}
}

// batchMethod returns the batch counterpart each streaming estimator must
// reproduce.
func batchMethod(t *testing.T, name string) truth.Method {
	t.Helper()
	var (
		m   truth.Method
		err error
	)
	switch name {
	case EstimatorCRH:
		m, err = truth.NewCRH()
	case EstimatorGTM:
		m, err = truth.NewGTM()
	case EstimatorCATD:
		m, err = truth.NewCATD()
	default:
		t.Fatalf("no batch counterpart for %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEstimatorMatchesBatch is the closed-window equivalence property for
// every estimator: one closed window with decay disabled reproduces the
// batch method's truths, weights, iteration count, and convergence flag,
// across seeds and shard counts.
func TestEstimatorMatchesBatch(t *testing.T) {
	for _, est := range estimatorsUnderTest(t) {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, shards := range []int{1, 3, 7} {
				est, seed, shards := est, seed, shards
				t.Run(fmt.Sprintf("%s/seed-%d/shards-%d", est, seed, shards), func(t *testing.T) {
					rng := randx.New(seed)
					ds := randomDataset(t, rng, 30+int(seed), 13)
					batch, err := batchMethod(t, est).Run(ds)
					if err != nil {
						t.Fatal(err)
					}

					e, err := New(Config{NumObjects: ds.NumObjects(), NumShards: shards, Estimator: est})
					if err != nil {
						t.Fatal(err)
					}
					defer func() {
						if err := e.Close(); err != nil {
							t.Error(err)
						}
					}()
					if e.Config().Estimator != est {
						t.Fatalf("Config().Estimator = %q, want %q", e.Config().Estimator, est)
					}
					ingestDataset(t, e, ds)
					res, err := e.CloseWindow()
					if err != nil {
						t.Fatal(err)
					}
					if res.Estimator != est {
						t.Errorf("result estimator = %q, want %q", res.Estimator, est)
					}
					if res.Iterations != batch.Iterations || res.Converged != batch.Converged {
						t.Errorf("iterations/converged: stream %d/%v, batch %d/%v",
							res.Iterations, res.Converged, batch.Iterations, batch.Converged)
					}
					requireEquivalent(t, ds, res, batch)
				})
			}
		}
	}
}

// TestEstimatorKillAndRecover is the kill-and-recover property per
// estimator: an engine exported mid-stream and restored into a fresh
// engine (possibly sharded differently) produces the same remaining
// window results as the uninterrupted engine, within 1e-9 — the carry
// weights riding the snapshot are every estimator's whole cross-window
// memory.
func TestEstimatorKillAndRecover(t *testing.T) {
	const (
		numObjects = 9
		numUsers   = 12
		numWindows = 4
		cutAfter   = 2
	)
	cases := []struct {
		shards, restoreShards int
		decay                 float64
	}{
		{3, 3, 0.85},
		{4, 2, 1},
	}
	for _, est := range estimatorsUnderTest(t) {
		for _, seed := range []uint64{1, 7} {
			for _, tc := range cases {
				est, seed, tc := est, seed, tc
				t.Run(fmt.Sprintf("%s/seed=%d/shards=%d-%d/decay=%v", est, seed, tc.shards, tc.restoreShards, tc.decay), func(t *testing.T) {
					cfg := Config{
						NumObjects: numObjects,
						NumShards:  tc.shards,
						Estimator:  est,
						Decay:      tc.decay,
						Lambda1:    1.5,
						Lambda2:    2,
						Delta:      0.3,
					}
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
					if state.Estimator != est {
						t.Fatalf("exported estimator = %q, want %q", state.Estimator, est)
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
}

// TestRestoreEstimatorMismatch checks the snapshot compatibility rule: a
// state restores only into an engine running the estimator that wrote it,
// a legacy state (no estimator recorded) counts as CRH, and the refusal
// is the typed ErrEstimatorMismatch.
func TestRestoreEstimatorMismatch(t *testing.T) {
	exportFrom := func(t *testing.T, est string) *EngineState {
		t.Helper()
		e, err := New(Config{NumObjects: 3, NumShards: 2, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		ingestWindow(t, e, windowBatches(randx.New(5), 4, 3))
		if _, err := e.CloseWindow(); err != nil {
			t.Fatal(err)
		}
		state, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	restoreInto := func(t *testing.T, est string, st *EngineState) error {
		t.Helper()
		e, err := New(Config{NumObjects: 3, NumShards: 1, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		return e.Restore(st)
	}

	for _, tc := range []struct {
		written, configured string
		legacy              bool // clear the recorded estimator, as pre-estimator states have it
		wantMismatch        bool
	}{
		{written: EstimatorGTM, configured: EstimatorCRH, wantMismatch: true},
		{written: EstimatorCRH, configured: EstimatorCATD, wantMismatch: true},
		{written: EstimatorCATD, configured: EstimatorGTM, wantMismatch: true},
		{written: EstimatorGTM, configured: EstimatorGTM},
		{written: EstimatorCRH, configured: EstimatorCRH, legacy: true},
		{written: EstimatorCRH, configured: EstimatorGTM, legacy: true, wantMismatch: true},
	} {
		name := fmt.Sprintf("%s-into-%s", tc.written, tc.configured)
		if tc.legacy {
			name = "legacy-" + name
		}
		t.Run(name, func(t *testing.T) {
			st := exportFrom(t, tc.written)
			if tc.legacy {
				st.Estimator = ""
			}
			err := restoreInto(t, tc.configured, st)
			if tc.wantMismatch {
				if !errors.Is(err, ErrEstimatorMismatch) {
					t.Fatalf("Restore = %v, want ErrEstimatorMismatch", err)
				}
			} else if err != nil {
				t.Fatalf("Restore: %v", err)
			}
		})
	}
}

// TestEstimatorConfigValidation checks the estimator name is validated
// and defaulted at engine construction.
func TestEstimatorConfigValidation(t *testing.T) {
	if _, err := New(Config{NumObjects: 1, Estimator: "kalman"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("New with unknown estimator = %v, want ErrBadConfig", err)
	}
	e, err := New(Config{NumObjects: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if e.Config().Estimator != EstimatorCRH {
		t.Fatalf("default estimator = %q, want %q", e.Config().Estimator, EstimatorCRH)
	}
}

// TestEstimatorMultiWindowIncremental is TestMultiWindowIncrementalMatchesBatch
// generalized: with decay disabled and carryover off, the second window's
// estimate over accumulated statistics equals the batch method over the
// union of all claims, for every estimator.
func TestEstimatorMultiWindowIncremental(t *testing.T) {
	for _, est := range estimatorsUnderTest(t) {
		est := est
		t.Run(est, func(t *testing.T) {
			rng := randx.New(23)
			ds := randomDataset(t, rng, 40, 11)
			batch, err := batchMethod(t, est).Run(ds)
			if err != nil {
				t.Fatal(err)
			}

			e, err := New(Config{NumObjects: ds.NumObjects(), NumShards: 3, Estimator: est, DisableCarryover: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			for _, parity := range []int{0, 1} {
				for s := 0; s < ds.NumUsers(); s++ {
					obs, err := ds.UserObservations(s)
					if err != nil {
						t.Fatal(err)
					}
					var claims []Claim
					for _, o := range obs {
						if o.Object%2 == parity {
							claims = append(claims, Claim{Object: o.Object, Value: o.Value})
						}
					}
					if len(claims) == 0 {
						continue
					}
					if _, _, err := e.Ingest(userID(s), claims); err != nil {
						t.Fatal(err)
					}
				}
				if parity == 0 {
					if _, err := e.CloseWindow(); err != nil {
						t.Fatal(err)
					}
				}
			}
			res, err := e.CloseWindow()
			if err != nil {
				t.Fatal(err)
			}
			requireEquivalent(t, ds, res, batch)
		})
	}
}

// TestEstimatorWeightSemantics pins what the published weights mean per
// estimator on a tiny two-user window: CRH weights are non-negative log
// ratios, GTM weights are precisions (1/variance, bounded by the prior),
// CATD weights are normalized to mean 1 across the registry.
func TestEstimatorWeightSemantics(t *testing.T) {
	claims := map[string][]Claim{
		"user-00": {{Object: 0, Value: 1}, {Object: 1, Value: 2}},
		"user-01": {{Object: 0, Value: 1.5}, {Object: 1, Value: 1}},
	}
	for _, est := range estimatorsUnderTest(t) {
		est := est
		t.Run(est, func(t *testing.T) {
			e, err := New(Config{NumObjects: 2, NumShards: 2, Estimator: est})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			ingestWindow(t, e, claims)
			res, err := e.CloseWindow()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Weights) != 2 {
				t.Fatalf("weights = %v, want both users", res.Weights)
			}
			var sum float64
			for id, w := range res.Weights {
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					t.Errorf("weight[%s] = %v", id, w)
				}
				sum += w
			}
			if est == EstimatorCATD && math.Abs(sum-2) > 1e-9 {
				t.Errorf("catd weights sum to %v, want 2 (mean 1)", sum)
			}
		})
	}
}
