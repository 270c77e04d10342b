package stream

import (
	"errors"
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
	e, err := New(Config{NumObjects: 1, HistoryWindows: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	if got := e.HistoryWindows(); got != 3 {
		t.Fatalf("HistoryWindows = %d, want 3", got)
	}
	if res, ok := e.ResultAt(1); ok || res != nil {
		t.Fatal("ResultAt on empty ring should miss")
	}
	for w := 1; w <= 5; w++ {
		res := closeWindowWith(t, e, "u", float64(w))
		if res.Window != w {
			t.Fatalf("close %d returned window %d", w, res.Window)
		}
	}

	// Only the last three windows are retained.
	for _, w := range []int{1, 2} {
		if _, ok := e.ResultAt(w); ok {
			t.Errorf("window %d should be evicted", w)
		}
	}
	for w := 3; w <= 5; w++ {
		res, ok := e.ResultAt(w)
		if !ok || res.Window != w {
			t.Errorf("window %d: ok=%v res=%+v", w, ok, res)
		}
	}
	if _, ok := e.ResultAt(6); ok {
		t.Error("future window should miss")
	}
	if snap := e.Snapshot(); snap == nil || snap.Window != 5 {
		t.Errorf("Snapshot = %+v, want window 5", snap)
	}
	hist := e.History()
	if len(hist) != 3 || hist[0].Window != 3 || hist[2].Window != 5 {
		t.Errorf("History windows = %v", windowsOf(hist))
	}
}

func TestHistoryDefaultCapacity(t *testing.T) {
	e, err := New(Config{NumObjects: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if got := e.HistoryWindows(); got != DefaultHistoryWindows {
		t.Fatalf("default HistoryWindows = %d, want %d", got, DefaultHistoryWindows)
	}
}

func TestHistoryConfigValidation(t *testing.T) {
	if _, err := New(Config{NumObjects: 1, HistoryWindows: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("HistoryWindows -1: err = %v, want ErrBadConfig", err)
	}
}

func TestRestoreHistoryMergesSortsAndTrims(t *testing.T) {
	e, err := New(Config{NumObjects: 1, HistoryWindows: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	// Unsorted, duplicated, and overflowing input: the ring must come
	// out sorted, deduplicated, and trimmed to its newest 3.
	mk := func(w int) *WindowResult { return &WindowResult{Window: w} }
	e.RestoreHistory([]*WindowResult{mk(4), nil, mk(2), mk(4), mk(1), mk(3)})

	hist := e.History()
	if got := windowsOf(hist); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("restored windows = %v, want [2 3 4]", got)
	}
	if snap := e.Snapshot(); snap.Window != 4 {
		t.Fatalf("Snapshot window = %d", snap.Window)
	}
	// A later one-element restore layers on top without losing the rest.
	e.RestoreHistory([]*WindowResult{mk(5)})
	if got := windowsOf(e.History()); got[0] != 3 || got[2] != 5 {
		t.Fatalf("after a one-element RestoreHistory: %v, want [3 4 5]", got)
	}
}

func windowsOf(hist []*WindowResult) []int {
	out := make([]int, len(hist))
	for i, r := range hist {
		out[i] = r.Window
	}
	return out
}
