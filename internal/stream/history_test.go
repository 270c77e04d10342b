package stream

import (
	"sort"
	"testing"
)

// closeWindowWith ingests one claim for the given user/value and closes
// the window, returning the published result.
func closeWindowWith(t *testing.T, e *Engine, user string, value float64) *WindowResult {
	t.Helper()
	if _, _, err := e.Ingest(user, []Claim{{Object: 0, Value: value}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	res, err := e.CloseWindow()
	if err != nil {
		t.Fatalf("close window: %v", err)
	}
	return res
}

func TestHistoryRingBounds(t *testing.T) {
	e, err := New(Config{NumObjects: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	if res, ok := e.ResultAt(1); ok || res != nil {
		t.Fatal("ResultAt on empty ring should miss")
	}
	last := HistoryWindows + 2
	for w := 1; w <= last; w++ {
		res := closeWindowWith(t, e, "u", float64(w))
		if res.Window != w {
			t.Fatalf("close %d returned window %d", w, res.Window)
		}
	}

	// Only the last HistoryWindows windows are retained.
	for _, w := range []int{1, 2} {
		if _, ok := e.ResultAt(w); ok {
			t.Errorf("window %d should be evicted", w)
		}
	}
	for w := 3; w <= last; w++ {
		res, ok := e.ResultAt(w)
		if !ok || res.Window != w {
			t.Errorf("window %d: ok=%v res=%+v", w, ok, res)
		}
	}
	if _, ok := e.ResultAt(last + 1); ok {
		t.Error("future window should miss")
	}
	if snap := e.Snapshot(); snap == nil || snap.Window != last {
		t.Errorf("Snapshot = %+v, want window %d", snap, last)
	}
	if got := windowsOf(ringOf(e)); len(got) != HistoryWindows || got[0] != 3 || got[len(got)-1] != last {
		t.Errorf("ring windows = %v", got)
	}
}

// TestHistoryDefaultCapacity pins the ring depth the docs promise, the
// last 8 closed windows; TestHistoryRingBounds checks that the ring
// holds exactly HistoryWindows.
func TestHistoryDefaultCapacity(t *testing.T) {
	if HistoryWindows != 8 {
		t.Fatalf("HistoryWindows = %d, want 8", HistoryWindows)
	}
}

func TestRestoreHistoryMergesSortsAndTrims(t *testing.T) {
	e, err := New(Config{NumObjects: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	// Unsorted, duplicated, and overflowing input: the ring must come
	// out sorted, deduplicated, and trimmed to its newest HistoryWindows.
	mk := func(w int) *WindowResult { return &WindowResult{Window: w} }
	in := []*WindowResult{mk(HistoryWindows + 2), nil, mk(2), mk(HistoryWindows + 2), mk(1)}
	for w := HistoryWindows + 1; w >= 3; w-- {
		in = append(in, mk(w))
	}
	e.RestoreHistory(in)

	got := windowsOf(ringOf(e))
	if len(got) != HistoryWindows || got[0] != 3 || got[len(got)-1] != HistoryWindows+2 || !sort.IntsAreSorted(got) {
		t.Fatalf("restored windows = %v, want 3 … %d", got, HistoryWindows+2)
	}
	if snap := e.Snapshot(); snap.Window != HistoryWindows+2 {
		t.Fatalf("Snapshot window = %d", snap.Window)
	}
	// A later one-element restore layers on top without losing the rest.
	e.RestoreHistory([]*WindowResult{mk(HistoryWindows + 3)})
	if got := windowsOf(ringOf(e)); got[0] != 4 || got[len(got)-1] != HistoryWindows+3 {
		t.Fatalf("after a one-element RestoreHistory: %v, want 4 … %d", got, HistoryWindows+3)
	}
}

// ringOf copies the engine's retained results, oldest first.
func ringOf(e *Engine) []*WindowResult {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	return append([]*WindowResult(nil), e.history...)
}

func windowsOf(hist []*WindowResult) []int {
	out := make([]int, len(hist))
	for i, r := range hist {
		out[i] = r.Window
	}
	return out
}
