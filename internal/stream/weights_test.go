package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pptd/internal/randx"
)

// weightAggregates recomputes EffectiveUsers and MaxWeightShare from a
// close reply's map, summing in ID order.
func weightAggregates(ws map[string]float64) (effective, maxShare float64) {
	ids := make([]string, 0, len(ws))
	for id := range ws {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sum, sumSq, maxW float64
	for _, id := range ids {
		sum += ws[id]
		sumSq += ws[id] * ws[id]
		maxW = math.Max(maxW, ws[id])
	}
	if sumSq == 0 {
		if len(ws) == 0 {
			return 0, 0
		}
		return float64(len(ws)), 1 / float64(len(ws))
	}
	return sum * sum / sumSq, maxW / sum
}

// TestWeightsAtServesLatestWindowFromCarry: the engine keeps no weight
// map — not in the ring — and still answers for the
// latest closed window, and only for it, with exactly the map that
// window's CloseWindow returned; a restored engine answers the same from
// the carries in its state.
func TestWeightsAtServesLatestWindowFromCarry(t *testing.T) {
	for _, est := range estimatorsUnderTest(t) {
		t.Run(est, func(t *testing.T) {
			cfg := Config{NumObjects: 6, NumShards: 3, Estimator: est, Decay: 0.8}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			rng := randx.New(24)
			for _, w := range []int{0, 1} {
				if _, ok := e.WeightsAt(w); ok {
					t.Errorf("WeightsAt(%d) answered before any window closed", w)
				}
			}
			var res *WindowResult
			for window := 1; window <= 5; window++ {
				batches := windowBatches(rng, 12+window, cfg.NumObjects) // a new user joins every window
				ingestWindow(t, e, batches)
				if res, err = e.CloseWindow(); err != nil {
					t.Fatal(err)
				}
				if len(res.Weights) != res.ActiveUsers || res.ActiveUsers != 12+window {
					t.Fatalf("window %d: %d weights, %d active users", window, len(res.Weights), res.ActiveUsers)
				}
				got, ok := e.WeightsAt(window)
				if !ok || !reflect.DeepEqual(got, res.Weights) {
					t.Errorf("window %d: WeightsAt = %v, %v; CloseWindow returned %v", window, got, ok, res.Weights)
				}
				if _, ok := e.WeightsAt(window - 1); ok {
					t.Errorf("window %d: WeightsAt still answers for window %d", window, window-1)
				}
				eff, share := weightAggregates(res.Weights)
				if math.Abs(res.EffectiveUsers-eff) > 1e-9*eff || math.Abs(res.MaxWeightShare-share) > 1e-9 ||
					eff < 1 || eff > float64(res.ActiveUsers)+1e-9 {
					t.Errorf("window %d: effective users %v (recomputed %v), max share %v (recomputed %v), %d active",
						window, res.EffectiveUsers, eff, res.MaxWeightShare, share, res.ActiveUsers)
				}
			}
			history := ringOf(e)
			if len(history) != 5 {
				t.Fatalf("ring holds %d windows, want 5", len(history))
			}
			for _, kept := range history {
				if kept.Weights != nil {
					t.Errorf("ring entry for window %d holds %d weights", kept.Window, len(kept.Weights))
				}
			}
			if last := history[len(history)-1]; last.EffectiveUsers != res.EffectiveUsers || last.MaxWeightShare != res.MaxWeightShare {
				t.Errorf("ring entry lost the aggregates: %+v", last)
			}

			// New arrivals in the open window change nothing about window 5.
			if _, _, err := e.Ingest("latecomer", []Claim{{Object: 0, Value: 1}}); err != nil {
				t.Fatal(err)
			}
			if got, _ := e.WeightsAt(5); !reflect.DeepEqual(got, res.Weights) {
				t.Errorf("an open-window arrival changed window 5's weights: %v", got)
			}

			state, err := e.ExportState()
			if err != nil {
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
			// The state does not record who window 5 estimated, only who
			// holds statistics — the latecomer does, at the initial carry.
			want := map[string]float64{"latecomer": 1}
			for id, w := range res.Weights {
				want[id] = w
			}
			if got, ok := restored.WeightsAt(5); !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("restored WeightsAt(5) = %v, %v; want %v", got, ok, want)
			}
		})
	}
}

// TestWeightAggregatesOfZeroWeights: CRH gives a lone user weight
// -log(1), which is clamped to +0, never -0. The fold then weighs the
// window's users equally, so the aggregates are 1 and 1, as GTM's and
// CATD's are for a lone user, and the result stays JSON-encodable.
func TestWeightAggregatesOfZeroWeights(t *testing.T) {
	for _, est := range EstimatorNames {
		t.Run(est, func(t *testing.T) {
			e, err := New(Config{NumObjects: 2, Estimator: est})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			if _, _, err := e.Ingest("only", []Claim{{Object: 0, Value: 3}, {Object: 1, Value: 4}}); err != nil {
				t.Fatal(err)
			}
			res, err := e.CloseWindow()
			if err != nil {
				t.Fatal(err)
			}
			w, ok := res.Weights["only"]
			if !ok || math.Signbit(w) || (est == EstimatorCRH && w != 0) {
				t.Errorf("weights %v: want the lone user's weight non-negative (+0 under CRH)", res.Weights)
			}
			if res.EffectiveUsers != 1 || res.MaxWeightShare != 1 {
				t.Errorf("effective users %v, max share %v; want 1 and 1", res.EffectiveUsers, res.MaxWeightShare)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result does not encode: %v", err)
			}
		})
	}
}

// TestWeightsAtUnderConcurrentCloses reads the latest weights while
// submissions and closes run (-race): a read either names the latest
// window and gets a full map, or is told the window moved on.
func TestWeightsAtUnderConcurrentCloses(t *testing.T) {
	const users = 16
	e, err := New(Config{NumObjects: 4, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	rng := randx.New(7)
	ingestWindow(t, e, windowBatches(rng, users, 4))
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ws, ok := e.WeightsAt(e.Window()); ok && len(ws) != users {
					t.Errorf("latest weights hold %d users, want %d", len(ws), users)
					return
				}
			}
		}()
	}
	for window := 2; window <= 20; window++ {
		ingestWindow(t, e, windowBatches(rng, users, 4))
		if _, err := e.CloseWindow(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestWeightsAtCoversResidentUsersOnly: under a residency cap every
// user's statistics die at the close (churnDecay) and all but one are
// evicted; their slots are recycled by the next window's newcomers.
// WeightsAt then holds the resident remainder of the close reply — never
// a recycled slot's new owner under the old owner's weight.
func TestWeightsAtCoversResidentUsersOnly(t *testing.T) {
	e, err := New(Config{NumObjects: 3, NumShards: 2, Decay: churnDecay,
		MaxResidentUsers: 1, UserStore: newMemUserStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	rng := randx.New(11)
	ingestWindow(t, e, windowBatches(rng, 8, 3))
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weights) != 8 || e.ResidentUsers() != 1 {
		t.Fatalf("close replied %d weights with %d users resident, want 8 and 1", len(res.Weights), e.ResidentUsers())
	}
	for i := 0; i < 7; i++ { // newcomers take over the freed slots
		if _, _, err := e.Ingest(fmt.Sprintf("newcomer-%d", i), []Claim{{Object: i % 3, Value: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := e.WeightsAt(1)
	if !ok || len(got) != 1 {
		t.Fatalf("WeightsAt(1) = %v, %v; want the one resident user of window 1", got, ok)
	}
	for id, w := range got {
		if want, in := res.Weights[id]; !in || w != want {
			t.Errorf("WeightsAt(1)[%s] = %v, close replied %v (present %v)", id, w, want, in)
		}
	}
}
