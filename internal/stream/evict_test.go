package stream

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pptd/internal/randx"
)

// memUserStore is an in-memory UserStore: durable enough for engine-level
// property tests (the fake outlives the engine, the way the file-backed
// store outlives the process), with injectable failures.
type memUserStore struct {
	mu     sync.Mutex
	m      map[string]UserSpill
	spills int
	loads  int
	fail   bool
}

func newMemUserStore() *memUserStore {
	return &memUserStore{m: make(map[string]UserSpill)}
}

func (s *memUserStore) SpillUsers(users []UserSpill) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("injected spill failure")
	}
	for _, sp := range users {
		s.m[sp.ID] = sp
		s.spills++
	}
	return nil
}

func (s *memUserStore) LoadUser(id string) (*UserSpill, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return nil, false, errors.New("injected load failure")
	}
	sp, ok := s.m[id]
	if !ok {
		return nil, false, nil
	}
	s.loads++
	cp := sp
	return &cp, true, nil
}

func (s *memUserStore) counts() (spills, loads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spills, s.loads
}

// churnDecay is small enough that every sufficient statistic dies in a
// single decay pass (mass 1 * churnDecay < the 1e-9 evict floor), so
// after each window close every user is idle and eligible for eviction.
const churnDecay = 1e-10

// epsilonPerWindow returns what one window costs under cfg's accounting
// parameters.
func epsilonPerWindow(t *testing.T, cfg Config) float64 {
	t.Helper()
	eps, err := cfg.EpsilonPerWindow()
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// churnWindows pre-generates the claim batches of a churn run, staggered
// so users go idle on different windows (user u skips windows where
// (u+w)%4 == 0): exhaustion then arrives at different times per user and
// no window ever ends up empty.
func churnWindows(rng *randx.RNG, numWindows, numUsers, numObjects int) []map[string][]Claim {
	windows := make([]map[string][]Claim, numWindows)
	for w := range windows {
		windows[w] = windowBatches(rng, numUsers, numObjects)
		for u := 0; u < numUsers; u++ {
			if (u+w)%4 == 0 {
				delete(windows[w], fmt.Sprintf("user-%02d", u))
			}
		}
	}
	return windows
}

// ingestBoth submits one window's batches to both engines and asserts
// they accept and reject identically: an exhausted user must be refused
// by the bounded engine (where they may be evicted, spilled, and
// re-admitted) exactly when the unbounded engine refuses them.
func ingestBoth(t *testing.T, ref, bounded *Engine, numUsers int, batches map[string][]Claim) {
	t.Helper()
	for u := 0; u < numUsers; u++ {
		id := fmt.Sprintf("user-%02d", u)
		claims, ok := batches[id]
		if !ok {
			continue
		}
		_, _, refErr := ref.Ingest(id, claims)
		_, _, bndErr := bounded.Ingest(id, claims)
		switch {
		case refErr == nil && bndErr == nil:
		case errors.Is(refErr, ErrBudgetExhausted) && errors.Is(bndErr, ErrBudgetExhausted):
		default:
			t.Fatalf("ingest %s diverged: unbounded err=%v, bounded err=%v", id, refErr, bndErr)
		}
	}
}

// TestEvictionChurnEquivalence is the tentpole property: an engine that
// evicts every idle user at every window close (MaxResidentUsers 1, so
// the whole fleet cycles through spill and re-admission each window)
// publishes the same truths, weights, and privacy aggregates as an
// unbounded engine, within 1e-9, across estimators, seeds, and shard
// counts — including users exhausting their budget mid-churn and staying
// rejected from the spill store.
func TestEvictionChurnEquivalence(t *testing.T) {
	const (
		numObjects = 5
		numUsers   = 8
		numWindows = 6
	)
	for _, est := range estimatorsUnderTest(t) {
		for _, seed := range []uint64{1, 7, 13} {
			for _, shards := range []int{1, 3} {
				est, seed, shards := est, seed, shards
				t.Run(fmt.Sprintf("%s/seed-%d/shards-%d", est, seed, shards), func(t *testing.T) {
					cfg := Config{
						NumObjects: numObjects,
						NumShards:  shards,
						Estimator:  est,
						Decay:      churnDecay,
						Lambda1:    1.5,
						Lambda2:    2,
						Delta:      0.3,
					}
					// Budget enough for 4 of the 6 windows, so the last two
					// windows exercise budget_exhausted against spilled state.
					cfg.EpsilonBudget = 4.5 * epsilonPerWindow(t, cfg)

					windows := churnWindows(randx.New(seed), numWindows, numUsers, numObjects)

					ref, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = ref.Close() }()

					store := newMemUserStore()
					bndCfg := cfg
					bndCfg.MaxResidentUsers = 1
					bndCfg.UserStore = store
					bounded, err := New(bndCfg)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = bounded.Close() }()

					for w := 0; w < numWindows; w++ {
						ingestBoth(t, ref, bounded, numUsers, windows[w])
						want, err := ref.CloseWindow()
						if err != nil {
							t.Fatalf("unbounded close %d: %v", w, err)
						}
						got, err := bounded.CloseWindow()
						if err != nil {
							t.Fatalf("bounded close %d: %v", w, err)
						}
						sameWindowResult(t, fmt.Sprintf("window %d", w), want, got)
						if want.Privacy != nil && got.Privacy != nil {
							if got.Privacy.TrackedUsers != want.Privacy.TrackedUsers {
								t.Errorf("window %d: tracked users = %d, want %d",
									w, got.Privacy.TrackedUsers, want.Privacy.TrackedUsers)
							}
							if got.Privacy.ExhaustedUsers != want.Privacy.ExhaustedUsers {
								t.Errorf("window %d: exhausted users = %d, want %d",
									w, got.Privacy.ExhaustedUsers, want.Privacy.ExhaustedUsers)
							}
						}
						if n := bounded.ResidentUsers(); n > 1 {
							t.Errorf("window %d: %d residents after close, cap is 1", w, n)
						}
					}
					if spills, loads := store.counts(); spills == 0 || loads == 0 {
						t.Errorf("churn never hit the spill store: %d spills, %d loads", spills, loads)
					}
					if got, want := bounded.TrackedUsers(), ref.TrackedUsers(); got != want {
						t.Errorf("tracked users = %d, want %d", got, want)
					}
				})
			}
		}
	}
}

// TestEvictionKillAndRecoverMidChurn extends the equivalence property
// across a process death: the bounded engine is exported mid-churn and
// restored into a fresh engine sharing the same (durable) spill store;
// the remaining windows must still match the uninterrupted unbounded
// engine. Evicted users are deliberately absent from the snapshot —
// their only copy lives in the spill store — so this proves snapshot +
// spill together reconstruct the full population.
func TestEvictionKillAndRecoverMidChurn(t *testing.T) {
	const (
		numObjects = 5
		numUsers   = 8
		numWindows = 6
		cutAfter   = 3
	)
	for _, est := range estimatorsUnderTest(t) {
		for _, seed := range []uint64{2, 11} {
			est, seed := est, seed
			t.Run(fmt.Sprintf("%s/seed-%d", est, seed), func(t *testing.T) {
				cfg := Config{
					NumObjects: numObjects,
					NumShards:  2,
					Estimator:  est,
					Decay:      churnDecay,
					Lambda1:    1.5,
					Lambda2:    2,
					Delta:      0.3,
				}
				cfg.EpsilonBudget = 4.5 * epsilonPerWindow(t, cfg)

				windows := churnWindows(randx.New(seed), numWindows, numUsers, numObjects)

				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = ref.Close() }()

				store := newMemUserStore()
				bndCfg := cfg
				bndCfg.MaxResidentUsers = 2
				bndCfg.UserStore = store
				bounded, err := New(bndCfg)
				if err != nil {
					t.Fatal(err)
				}

				closeBoth := func(w int, cut *Engine) {
					t.Helper()
					want, err := ref.CloseWindow()
					if err != nil {
						t.Fatalf("unbounded close %d: %v", w, err)
					}
					got, err := cut.CloseWindow()
					if err != nil {
						t.Fatalf("bounded close %d: %v", w, err)
					}
					sameWindowResult(t, fmt.Sprintf("window %d", w), want, got)
				}
				for w := 0; w < cutAfter; w++ {
					ingestBoth(t, ref, bounded, numUsers, windows[w])
					closeBoth(w, bounded)
				}

				state, err := bounded.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if len(state.Users) >= numUsers {
					t.Fatalf("snapshot carries %d users; eviction should have spilled most of %d",
						len(state.Users), numUsers)
				}
				if err := bounded.Close(); err != nil {
					t.Fatal(err)
				}

				rec, err := New(bndCfg) // same spill store: it is the durable half
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = rec.Close() }()
				if err := rec.Restore(state); err != nil {
					t.Fatal(err)
				}
				for w := cutAfter; w < numWindows; w++ {
					ingestBoth(t, ref, rec, numUsers, windows[w])
					closeBoth(w, rec)
				}
			})
		}
	}
}

// TestChurnBoundedResidency is the acceptance criterion: a churn
// workload of 100×N distinct users (fresh IDs every window, never
// repeated) against MaxResidentUsers N holds the resident gauge at ≤ N
// after every window close, while the eviction metrics account for the
// entire spilled population.
func TestChurnBoundedResidency(t *testing.T) {
	const (
		capN           = 5
		usersPerWindow = 20
		numWindows     = 25 // 100×N distinct users total
		numObjects     = 3
	)
	store := newMemUserStore()
	e, err := New(Config{
		NumObjects:       numObjects,
		NumShards:        2,
		Decay:            churnDecay,
		MaxResidentUsers: capN,
		UserStore:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	rng := randx.New(42)
	next := 0
	for w := 0; w < numWindows; w++ {
		for u := 0; u < usersPerWindow; u++ {
			id := fmt.Sprintf("churn-%05d", next)
			next++
			claims := []Claim{{Object: next % numObjects, Value: rng.Norm()}}
			if _, _, err := e.Ingest(id, claims); err != nil {
				t.Fatalf("ingest %s: %v", id, err)
			}
		}
		if _, err := e.CloseWindow(); err != nil {
			t.Fatalf("close %d: %v", w, err)
		}
		if n := e.ResidentUsers(); n > capN {
			t.Fatalf("window %d: %d residents, cap %d", w, n, capN)
		}
	}
	if got, want := e.TrackedUsers(), usersPerWindow*numWindows; got != want {
		t.Errorf("tracked users = %d, want %d", got, want)
	}
	spills, _ := store.counts()
	if want := usersPerWindow*numWindows - capN; spills != want {
		t.Errorf("spilled %d users, want %d", spills, want)
	}
}

// TestEvictedExhaustedUserStaysRejected pins the security property the
// ledger-authoritative design exists for: a user who exhausted their
// budget cannot reset it by going idle, being evicted, and returning —
// nor by a process restart, nor both combined.
func TestEvictedExhaustedUserStaysRejected(t *testing.T) {
	cfg := Config{
		NumObjects: 2,
		NumShards:  1,
		Decay:      churnDecay,
		Lambda1:    1.5,
		Lambda2:    2,
		Delta:      0.3,
	}
	eps := epsilonPerWindow(t, cfg)
	cfg.EpsilonBudget = 1.5 * eps // exhausted after one window
	store := newMemUserStore()
	cfg.MaxResidentUsers = 1
	cfg.UserStore = store

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	claims := []Claim{{Object: 0, Value: 1}}
	if _, _, err := e.Ingest("victim", claims); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Ingest("filler", claims); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	// Both users are idle now; the cap of 1 evicted at least one. Keep
	// "filler" fresh so "victim" is the LRU victim on the next close too.
	if _, ok := store.m["victim"]; !ok {
		// The deterministic LRU (insertion order ties) must have spilled
		// the victim; if not, the test premise is wrong.
		t.Fatalf("victim not spilled after close; spill store holds %v", len(store.m))
	}

	// Across eviction: re-admission must load the spilled budget and
	// reject the next window.
	if _, _, err := e.Ingest("victim", claims); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-eviction ingest = %v, want ErrBudgetExhausted", err)
	}
	// The rejected re-admission must not leak residency: the exhausted
	// user is dropped back to the spill store, not pinned resident.
	if n := e.ResidentUsers(); n > 2 {
		t.Errorf("%d residents after rejected re-admission", n)
	}

	// Across restart: export, close, restore into a fresh engine sharing
	// the spill store.
	state, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rec.Close() }()
	if err := rec.Restore(state); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Ingest("victim", claims); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-restart ingest = %v, want ErrBudgetExhausted", err)
	}
}

// TestSpillFailureSkipsEviction pins the spill-before-drop ordering: if
// the store cannot make the spill durable, the users stay resident (over
// cap) rather than losing their budget state, and the next close retries.
func TestSpillFailureSkipsEviction(t *testing.T) {
	store := newMemUserStore()
	e, err := New(Config{
		NumObjects:       2,
		NumShards:        1,
		Decay:            churnDecay,
		MaxResidentUsers: 1,
		UserStore:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	for u := 0; u < 4; u++ {
		if _, _, err := e.Ingest(fmt.Sprintf("user-%d", u), []Claim{{Object: 0, Value: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	store.mu.Lock()
	store.fail = true
	store.mu.Unlock()
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err) // a spill failure must never fail the close
	}
	if n := e.ResidentUsers(); n != 4 {
		t.Fatalf("%d residents after failed spill, want all 4 retained", n)
	}
	store.mu.Lock()
	store.fail = false
	store.mu.Unlock()
	// The retry needs another close; users are already idle.
	if _, _, err := e.Ingest("user-5", []Claim{{Object: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if n := e.ResidentUsers(); n > 1 {
		t.Fatalf("%d residents after recovered spill, cap 1", n)
	}
}

// TestResidencyCapConfigValidation: the cap requires a UserStore (the
// spilled budget state must be durable), and a bad cap value is refused.
func TestResidencyCapConfigValidation(t *testing.T) {
	if _, err := New(Config{NumObjects: 1, MaxResidentUsers: 4}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MaxResidentUsers without UserStore = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{NumObjects: 1, MaxResidentUsers: -1, UserStore: newMemUserStore()}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative MaxResidentUsers = %v, want ErrBadConfig", err)
	}
	// A UserStore without caps is fine: admission still consults it, so
	// an engine recovered behind an existing spill store keeps honoring
	// spilled budgets even before any cap is configured.
	e, err := New(Config{NumObjects: 1, UserStore: newMemUserStore()})
	if err != nil {
		t.Fatalf("UserStore without caps: %v", err)
	}
	_ = e.Close()
}
