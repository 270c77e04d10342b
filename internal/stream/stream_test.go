package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"pptd/internal/core"
	"pptd/internal/randx"
)

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},                               // no objects
		{NumObjects: -1},                 // negative objects
		{NumObjects: math.MaxUint32 + 1}, // more objects than a row's uint32 holds
		{NumObjects: 5, Decay: 1.5},      // decay out of range
		{NumObjects: 5, Decay: math.NaN()},
		{NumObjects: 5, NumShards: -2},
		{NumObjects: 5, Lambda1: 1},             // accounting without lambda2/delta
		{NumObjects: 5, Lambda1: 1, Lambda2: 2}, // missing delta
		{NumObjects: 5, Lambda1: 1, Lambda2: 2, Delta: 1.5},  // delta out of range
		{NumObjects: 5, EpsilonBudget: 1},                    // budget without accounting
		{NumObjects: 5, Lambda1: -1, Lambda2: 2, Delta: 0.3}, // bad lambda1
		{NumObjects: 5, Lambda1: 1, Lambda2: -2, Delta: 0.3}, // bad lambda2
		{NumObjects: 5, EpsilonBudget: math.Inf(1), Lambda1: 1, Lambda2: 2, Delta: 0.3},
		{NumObjects: 5, Lambda2: math.NaN()},    // bad lambda2 without accounting
		{NumObjects: 5, Lambda2: math.Inf(1)},   // bad lambda2 without accounting
		{NumObjects: 5, Lambda2: -1},            // bad lambda2 without accounting
		{NumObjects: 5, Lambda1: 1, Delta: 0.3}, // accounting with lambda2 = 0
		{NumObjects: 5, Delta: 0.3},             // delta without accounting
		{NumObjects: 5, Delta: math.NaN()},      // NaN delta without accounting
		{NumObjects: 5, Ledger: nopLedger{}},    // ledger without accounting
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		} else if !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error %v does not wrap ErrBadConfig", i, err)
		}
	}
	// A validated config is a fixed point: validating an engine's own
	// defaulted config again (a host validates, then New does) neither
	// fails nor changes it, whichever estimator it names.
	for _, est := range EstimatorNames {
		cfg := Config{NumObjects: 5, Estimator: est}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", est, err)
		}
		again := cfg
		if err := again.Validate(); err != nil || again != cfg {
			t.Errorf("%s: re-validating the defaulted config: err = %v, changed = %v", est, err, again != cfg)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	e, err := New(Config{NumObjects: 3, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()
	for _, tc := range []struct {
		user   string
		claims []Claim
	}{
		{"", []Claim{{Object: 0, Value: 1}}},
		{"u", nil},
		{"u", []Claim{{Object: 3, Value: 1}}},
		{"u", []Claim{{Object: -1, Value: 1}}},
		{"u", []Claim{{Object: 0, Value: math.NaN()}}},
		{"u", []Claim{{Object: 0, Value: math.Inf(-1)}}},
	} {
		if _, _, err := e.Ingest(tc.user, tc.claims); !errors.Is(err, ErrBadClaim) {
			t.Errorf("Ingest(%q, %v) = %v, want ErrBadClaim", tc.user, tc.claims, err)
		}
	}
	if _, err := e.CloseWindow(); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("CloseWindow on empty engine = %v, want ErrEmptyWindow", err)
	}
	if e.Snapshot() != nil {
		t.Error("Snapshot before any window, want nil")
	}
}

func TestEngineClosed(t *testing.T) {
	e, err := New(Config{NumObjects: 2, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Ingest("u", []Claim{{Object: 0, Value: 1}}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Ingest after Close = %v", err)
	}
	if _, err := e.CloseWindow(); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("CloseWindow after Close = %v", err)
	}
	if err := e.Close(); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("second Close = %v", err)
	}
}

// TestConcurrentIngest hammers the engine from many goroutines while
// windows close and the state is exported concurrently, and checks that
// every accepted claim lands whole in exactly one window; run with -race
// this doubles as the data race check the subsystem is gated on.
func TestConcurrentIngest(t *testing.T) {
	const (
		writers          = 8
		batchesPerWriter = 40
		numObjects       = 23
	)
	e, err := New(Config{NumObjects: numObjects, NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()

	var wg sync.WaitGroup
	var total int64
	var mu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randx.New(uint64(w + 1))
			var sent int64
			for b := 0; b < batchesPerWriter; b++ {
				claims := make([]Claim, 1+rng.Intn(numObjects))
				for i := range claims {
					claims[i] = Claim{Object: rng.Intn(numObjects), Value: rng.Norm()}
				}
				if _, _, err := e.Ingest(fmt.Sprintf("w%d-u%d", w, b%5), claims); err != nil {
					t.Error(err)
					return
				}
				sent += int64(len(claims))
			}
			mu.Lock()
			total += sent
			mu.Unlock()
		}(w)
	}
	// Close windows and export the state concurrently with the writers.
	// With Decay 1 every statistic's mass counts its claims, so each
	// export's summed mass equals its TotalClaims unless a batch was
	// caught half folded.
	massOf := func(st *EngineState) (mass float64) {
		for _, sn := range st.Stats {
			mass += sn.Mass
		}
		return mass
	}
	var windowClaims int64
	writing := make(chan struct{})
	keepRacing := func(i int) bool { // while the writers run, and at least 5 times
		select {
		case <-writing:
			return i < 5
		default:
			return true
		}
	}
	done := make(chan struct{}, 2)
	go func() {
		defer func() { done <- struct{}{} }()
		for i := 0; keepRacing(i); i++ {
			res, err := e.CloseWindow()
			if err != nil && !errors.Is(err, ErrEmptyWindow) {
				t.Error(err)
				return
			}
			if err == nil {
				windowClaims += res.WindowClaims
			}
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		for i := 0; keepRacing(i); i++ {
			st, err := e.ExportState()
			if err != nil {
				t.Error(err)
				return
			}
			if got := massOf(st); got != float64(st.TotalClaims) {
				t.Errorf("export %d: summed mass %v, want its TotalClaims %d", i, got, st.TotalClaims)
			}
		}
	}()
	wg.Wait()
	close(writing)
	<-done
	<-done

	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalClaims != total {
		t.Errorf("TotalClaims = %d, want %d", res.TotalClaims, total)
	}
	if windowClaims += res.WindowClaims; windowClaims != total {
		t.Errorf("windows' WindowClaims sum to %d, want the %d accepted claims", windowClaims, total)
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := massOf(st); got != float64(total) {
		t.Errorf("exported statistics' summed mass = %v, want the %d accepted claims", got, total)
	}
	if got := e.Snapshot(); got == nil || got.Window != res.Window || got.TotalClaims != res.TotalClaims {
		t.Errorf("Snapshot = %+v, want the latest window result", got)
	} else if got.Weights != nil {
		t.Error("the retained result still holds the per-user weights")
	}
	if e.Window() != res.Window {
		t.Errorf("Window() = %d, want %d", e.Window(), res.Window)
	}
}

// TestDecayForgetsOldClaims checks the exponential window decay: a stale
// claim loses influence against fresh ones, and fully idle statistics
// are eventually evicted.
func TestDecayForgetsOldClaims(t *testing.T) {
	e, err := New(Config{NumObjects: 1, NumShards: 1, Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()
	if _, _, err := e.Ingest("u", []Claim{{Object: 0, Value: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Ingest("u", []Claim{{Object: 0, Value: 0}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	// Decayed mean: (0.5*10 + 0) / (0.5 + 1) = 10/3; an undecayed mean
	// would sit at 5.
	want := 10.0 / 3.0
	if d := math.Abs(res.Truths[0] - want); d > 1e-12 {
		t.Errorf("decayed truth = %v, want %v", res.Truths[0], want)
	}

	// With no further claims the statistic decays to eviction and the
	// stream eventually reports an empty window.
	var evicted bool
	for i := 0; i < 64; i++ {
		if _, err := e.CloseWindow(); errors.Is(err, ErrEmptyWindow) {
			evicted = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !evicted {
		t.Error("idle statistics never evicted under decay")
	}
}

// TestBudgetEnforcement checks per-window epsilon composition against an
// enforced cumulative cap.
func TestBudgetEnforcement(t *testing.T) {
	const (
		lambda1 = 1.0
		lambda2 = 2.0
		delta   = 0.3
	)
	acct, err := core.NewAccountant(lambda1)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := core.NewMechanism(lambda2)
	if err != nil {
		t.Fatal(err)
	}
	epsWindow, err := acct.Epsilon(mech, delta)
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(Config{
		NumObjects:    2,
		NumShards:     1,
		Lambda1:       lambda1,
		Lambda2:       lambda2,
		Delta:         delta,
		EpsilonBudget: 2.5 * epsWindow, // affords exactly two windows
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := e.EpsilonPerWindow(); math.Abs(got-epsWindow) > 1e-12 {
		t.Fatalf("EpsilonPerWindow = %v, want %v", got, epsWindow)
	}

	claims := []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}
	for w := 0; w < 2; w++ {
		_, window, err := e.Ingest("alice", claims)
		if err != nil {
			t.Fatalf("window %d ingest: %v", w, err)
		}
		if window != w+1 {
			t.Fatalf("ingest reported window %d, want %d", window, w+1)
		}
		// A second batch in the same window is a second perturbed release;
		// the accounting unit matches the release unit, so it is rejected
		// instead of being averaged in for free.
		if _, _, err := e.Ingest("alice", claims); !errors.Is(err, ErrDuplicateWindow) {
			t.Fatalf("window %d second ingest = %v, want ErrDuplicateWindow", w, err)
		}
		res, err := e.CloseWindow()
		if err != nil {
			t.Fatal(err)
		}
		if res.Privacy == nil {
			t.Fatal("no privacy report with accounting enabled")
		}
		wantCum := float64(w+1) * epsWindow
		if got := res.Privacy.MaxCumulative; math.Abs(got-wantCum) > 1e-9 {
			t.Errorf("window %d: MaxCumulative = %v, want alice's %v", w+1, got, wantCum)
		}
		if res.Privacy.MaxWindows != w+1 {
			t.Errorf("MaxWindows = %d, want %d", res.Privacy.MaxWindows, w+1)
		}
		wantDelta := float64(w+1) * delta
		if math.Abs(res.Privacy.CumulativeDelta-wantDelta) > 1e-12 {
			t.Errorf("CumulativeDelta = %v, want %v", res.Privacy.CumulativeDelta, wantDelta)
		}
	}

	// Third window: alice is out of budget, bob is fresh.
	if _, _, err := e.Ingest("alice", claims); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("over-budget ingest = %v, want ErrBudgetExhausted", err)
	}
	if _, _, err := e.Ingest("bob", claims); err != nil {
		t.Errorf("fresh user rejected: %v", err)
	}
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if res.Privacy.ExhaustedUsers != 1 {
		t.Errorf("ExhaustedUsers = %d, want 1", res.Privacy.ExhaustedUsers)
	}
}

// TestReleaseContract checks that with accounting enabled the engine
// admits exactly one perturbed release per (user, object, window) — the
// unit the per-window epsilon is derived for — while without accounting
// repeat submissions remain a plain aggregation feature.
func TestReleaseContract(t *testing.T) {
	acct, err := New(Config{
		NumObjects: 2,
		NumShards:  1,
		Lambda1:    1,
		Lambda2:    2,
		Delta:      0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := acct.Close(); err != nil {
			t.Error(err)
		}
	}()

	// A batch carrying the same object twice is two releases of one
	// reading; rejected up front.
	dup := []Claim{{Object: 0, Value: 1}, {Object: 0, Value: 2}}
	if _, _, err := acct.Ingest("u", dup); !errors.Is(err, ErrBadClaim) {
		t.Errorf("duplicate-object batch = %v, want ErrBadClaim", err)
	}

	claims := []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}
	if _, _, err := acct.Ingest("u", claims); err != nil {
		t.Fatal(err)
	}
	if _, _, err := acct.Ingest("u", claims); !errors.Is(err, ErrDuplicateWindow) {
		t.Errorf("same-window resubmission = %v, want ErrDuplicateWindow", err)
	}
	// Another user in the same window is fine, and the same user is
	// welcome back once the window advances.
	if _, _, err := acct.Ingest("v", claims); err != nil {
		t.Errorf("other user rejected: %v", err)
	}
	if _, err := acct.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := acct.Ingest("u", claims); err != nil {
		t.Errorf("next-window resubmission rejected: %v", err)
	}

	// Without accounting there is no privacy contract to enforce:
	// repeat submissions fold into the decayed mean.
	plain, err := New(Config{NumObjects: 2, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := plain.Close(); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 3; i++ {
		if _, _, err := plain.Ingest("u", dup); err != nil {
			t.Fatalf("unaccounted resubmission %d: %v", i, err)
		}
	}
	res, err := plain.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.5; math.Abs(res.Truths[0]-want) > 1e-12 {
		t.Errorf("unaccounted mean = %v, want %v", res.Truths[0], want)
	}
}

// TestUncoveredObjectsAreNaN checks partial coverage: objects nobody
// claimed stay NaN and are marked uncovered.
func TestUncoveredObjectsAreNaN(t *testing.T) {
	e, err := New(Config{NumObjects: 4, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()
	if _, _, err := e.Ingest("u", []Claim{{Object: 1, Value: 3}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if n == 1 {
			if !res.Covered[1] || res.Truths[1] != 3 {
				t.Errorf("covered object: covered=%v truth=%v", res.Covered[1], res.Truths[1])
			}
			continue
		}
		if res.Covered[n] || !math.IsNaN(res.Truths[n]) {
			t.Errorf("object %d: covered=%v truth=%v, want uncovered NaN", n, res.Covered[n], res.Truths[n])
		}
	}
}
