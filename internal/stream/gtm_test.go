package stream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"

	"pptd/internal/randx"
)

// gtmPinnedDigests are the float-bit digests TestGTMWarmStartPinned
// expects, generated by the same test while GTM still kept a per-user
// variance vector beside the carry. GTM warm-starts each window from the
// carry weights, which hold exactly the precisions 1/σ² its last M-step
// computed; any change to how those precisions are carried across
// windows, snapshots, spills or cluster commits moves a bit and a digest.
var gtmPinnedDigests = map[string]string{
	"carryover/straight":    "5842767f4fb74552",
	"carryover/restore":     "dd2dce04dae3ca56",
	"carryover/evict":       "3c3f3c4aa128e052",
	"carryover/cluster":     "bf67b5a2996cfd8c",
	"no-carryover/straight": "8225c4ef26ad74a4",
	"no-carryover/restore":  "f26db905cd8f121f",
	"no-carryover/evict":    "632bf170e61a1f90",
	"no-carryover/cluster":  "f17451d46cf7e4e0",
}

// TestGTMWarmStartPinned runs a seeded multi-window GTM stream — decayed
// statistics, users silent in some windows, carryover on and off — four
// ways: uninterrupted, exported and restored mid-stream into a
// differently sharded engine, evicted and re-admitted through a spill
// store every window, and closed through the cluster round
// (CloseWindowExport, MergeStates, CloseWindow, ExportCarry,
// CommitCarry) across two workers. Each way's per-window truths, weights
// and iteration counts must hash to the pinned digest bit for bit.
func TestGTMWarmStartPinned(t *testing.T) {
	if !slices.Contains(estimatorsUnderTest(t), EstimatorGTM) {
		t.Skip("PPTD_STREAM_ESTIMATOR excludes gtm")
	}
	const (
		numObjects = 6
		numWindows = 8
	)
	windows := churnWindows(randx.New(31), numWindows, gtmPinnedUsers, numObjects)
	for _, carry := range []bool{true, false} {
		prefix := "carryover"
		if !carry {
			prefix = "no-carryover"
		}
		cfg := Config{
			NumObjects:       numObjects,
			NumShards:        3,
			Estimator:        EstimatorGTM,
			Decay:            0.8,
			DisableCarryover: !carry,
		}
		runs := map[string]func(*testing.T, Config, []map[string][]Claim) []*WindowResult{
			"straight": gtmStraight,
			"restore":  gtmRestoreMidStream,
			"evict":    gtmEvictEveryWindow,
			"cluster":  gtmClusterRounds,
		}
		for name, run := range runs {
			key := prefix + "/" + name
			t.Run(key, func(t *testing.T) {
				got := digestWindows(run(t, cfg, windows))
				if want := gtmPinnedDigests[key]; got != want {
					t.Errorf("digest = %s, want %s", got, want)
				}
			})
		}
	}
}

func newPinnedEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// gtmPinnedUsers is the fleet size of the pinned GTM stream.
const gtmPinnedUsers = 10

// ingestPresent submits the batches of the users present in a window,
// in user order.
func ingestPresent(t *testing.T, e *Engine, batches map[string][]Claim) {
	t.Helper()
	for u := 0; u < gtmPinnedUsers; u++ {
		id := fmt.Sprintf("user-%02d", u)
		if claims, ok := batches[id]; ok {
			if _, _, err := e.Ingest(id, claims); err != nil {
				t.Fatalf("ingest %s: %v", id, err)
			}
		}
	}
}

func mustClose(t *testing.T, e *Engine) *WindowResult {
	t.Helper()
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func gtmStraight(t *testing.T, cfg Config, windows []map[string][]Claim) []*WindowResult {
	e := newPinnedEngine(t, cfg)
	var out []*WindowResult
	for _, batches := range windows {
		ingestPresent(t, e, batches)
		out = append(out, mustClose(t, e))
	}
	return out
}

func gtmRestoreMidStream(t *testing.T, cfg Config, windows []map[string][]Claim) []*WindowResult {
	e := newPinnedEngine(t, cfg)
	var out []*WindowResult
	for w, batches := range windows {
		if w == len(windows)/2 {
			st, err := e.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			restoreCfg := cfg
			restoreCfg.NumShards = 2
			e = newPinnedEngine(t, restoreCfg)
			if err := e.Restore(st); err != nil {
				t.Fatal(err)
			}
		}
		ingestPresent(t, e, batches)
		out = append(out, mustClose(t, e))
	}
	return out
}

func gtmEvictEveryWindow(t *testing.T, cfg Config, windows []map[string][]Claim) []*WindowResult {
	store := newMemUserStore()
	cfg.Decay = churnDecay
	cfg.MaxResidentUsers = 1
	cfg.UserStore = store
	out := gtmStraight(t, cfg, windows)
	if spills, loads := store.counts(); spills == 0 || loads == 0 {
		t.Fatalf("churn never hit the spill store: %d spills, %d loads", spills, loads)
	}
	return out
}

func gtmClusterRounds(t *testing.T, cfg Config, windows []map[string][]Claim) []*WindowResult {
	workerCfg := cfg
	workerCfg.NumShards = 2
	workers := []*Engine{newPinnedEngine(t, workerCfg), newPinnedEngine(t, workerCfg)}
	owner := func(id string) int {
		var u int
		_, _ = fmt.Sscanf(id, "user-%d", &u)
		return u % len(workers)
	}
	var out []*WindowResult
	for _, batches := range windows {
		for u := 0; u < gtmPinnedUsers; u++ {
			id := fmt.Sprintf("user-%02d", u)
			if claims, ok := batches[id]; ok {
				if _, _, err := workers[owner(id)].Ingest(id, claims); err != nil {
					t.Fatalf("ingest %s: %v", id, err)
				}
			}
		}
		parts := make([]*EngineState, len(workers))
		for i, w := range workers {
			st, err := w.CloseWindowExport()
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = st
		}
		merged, err := MergeStates(parts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(merged); err != nil {
			t.Fatal(err)
		}
		out = append(out, mustClose(t, eng))
		carries, err := eng.ExportCarry()
		if err != nil {
			t.Fatal(err)
		}
		_ = eng.Close()
		byWorker := make([][]UserCarry, len(workers))
		for _, c := range carries {
			byWorker[owner(c.ID)] = append(byWorker[owner(c.ID)], c)
		}
		for i, w := range workers {
			if err := w.CommitCarry(byWorker[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// digestWindows hashes, per window, the window number, iteration count,
// convergence flag, every object's coverage and truth bits, and the
// weight bits of every active user in ID order.
func digestWindows(results []*WindowResult) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	for _, res := range results {
		put(uint64(res.Window))
		put(uint64(res.Iterations))
		if res.Converged {
			put(1)
		} else {
			put(0)
		}
		for n, tr := range res.Truths {
			if res.Covered[n] {
				put(math.Float64bits(tr))
			} else {
				put(0)
			}
		}
		ids := make([]string, 0, len(res.Weights))
		for id := range res.Weights {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			_, _ = h.Write([]byte(id))
			put(math.Float64bits(res.Weights[id]))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
