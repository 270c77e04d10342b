package streamstore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pptd/internal/obs"
	"pptd/internal/obs/obstest"
	"pptd/internal/stream"
)

func mkResult(window int, truth float64) *stream.WindowResult {
	return &stream.WindowResult{
		Window:  window,
		Truths:  []float64{truth},
		Covered: []bool{true},
	}
}

func TestResultHistoryPersistAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{ResultHistory: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	for w := 1; w <= 5; w++ {
		if err := s.SaveResult(mkResult(w, float64(10*w))); err != nil {
			t.Fatalf("save %d: %v", w, err)
		}
	}

	// Only the last three history files survive pruning.
	for _, w := range []int{1, 2} {
		if _, err := os.Stat(filepath.Join(dir, resultHistoryName(w))); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("window %d history file should be pruned (err %v)", w, err)
		}
	}
	hist, err := s.LoadResultHistory()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want 3", len(hist))
	}
	for i, want := range []int{3, 4, 5} {
		if hist[i].Window != want || hist[i].Truths[0] != float64(10*want) {
			t.Errorf("history[%d] = %+v, want window %d", i, hist[i], want)
		}
	}
}

func TestResultHistorySkipsCorruptGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{ResultHistory: 4})
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 3; w++ {
		if err := s.SaveResult(mkResult(w, float64(w))); err != nil {
			t.Fatal(err)
		}
	}
	// Damage one old generation: recovery must skip it, not fail.
	if err := os.WriteFile(filepath.Join(dir, resultHistoryName(2)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	hist, err := s.LoadResultHistory()
	if err != nil {
		t.Fatalf("LoadResultHistory with corrupt generation: %v", err)
	}
	got := make([]int, len(hist))
	for i, r := range hist {
		got[i] = r.Window
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("history windows = %v, want [1 3]", got)
	}
	// A corrupt latest result is still a hard error.
	if err := os.WriteFile(filepath.Join(dir, resultName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadResultHistory(); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("corrupt latest: err = %v, want ErrCorruptResult", err)
	}
	_ = s.Close()
}

func TestResultHistoryWithoutOptionKeepsLatestOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	for w := 1; w <= 3; w++ {
		if err := s.SaveResult(mkResult(w, float64(w))); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := s.LoadResultHistory()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Window != 3 {
		t.Fatalf("history without option = %+v, want just window 3", hist)
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{MaxBatch: 1, ResultHistory: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	for i := 0; i < 4; i++ {
		if err := s.AppendCharge(stream.ChargeRecord{User: "u", Window: i, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats(false)
	if st.JournalAppends != 4 {
		t.Errorf("appends = %d, want 4", st.JournalAppends)
	}
	// MaxBatch 1: every append pays its own sync, batch size always 1.
	if st.JournalSyncs != 4 || st.BatchSizes.Count != 4 {
		t.Errorf("syncs = %d batches = %d, want 4/4", st.JournalSyncs, st.BatchSizes.Count)
	}
	if st.BatchSizes.Counts[0] != 4 || st.BatchSizes.Max != 1 {
		t.Errorf("batch histogram = %+v", st.BatchSizes)
	}
	if st.FlushLatencySeconds.Count != 4 || st.FlushLatencySeconds.Sum <= 0 {
		t.Errorf("latency histogram = %+v", st.FlushLatencySeconds)
	}
	if st.JournalBytes <= 0 {
		t.Errorf("journal bytes = %d", st.JournalBytes)
	}
	if err := s.SaveResult(mkResult(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(false).ResultsSaved; got != 1 {
		t.Errorf("results saved = %d, want 1", got)
	}

	// Stats snapshots are independent copies: mutating one must not
	// alias the store's live counters.
	before := s.Stats(false)
	before.BatchSizes.Counts[0] = 999
	if s.Stats(false).BatchSizes.Counts[0] == 999 {
		t.Error("Stats shares bucket slice with the store")
	}
}

// TestStatsResetWindow: Stats(true) returns the window-so-far and
// advances the window boundary, so a long-lived node polling with
// reset sees per-window rates; gauges (JournalBytes, Segments) keep
// describing the present, and counting resumes from zero afterwards.
// The store's underlying counters stay monotone for /metrics — the
// reset only moves the baseline the windowed view subtracts.
func TestStatsResetWindow(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	for i := 0; i < 3; i++ {
		if err := s.AppendCharge(stream.ChargeRecord{User: "u", Window: i, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	window1 := s.Stats(true)
	if window1.JournalAppends != 3 || window1.JournalSyncs != 3 || window1.BatchSizes.Count != 3 {
		t.Fatalf("first window = %+v, want 3 appends/syncs/batches", window1)
	}
	after := s.Stats(false)
	if after.JournalAppends != 0 || after.JournalSyncs != 0 ||
		after.BatchSizes.Count != 0 || after.FlushLatencySeconds.Count != 0 {
		t.Errorf("counters survived reset: %+v", after)
	}
	if after.JournalBytes != window1.JournalBytes || after.JournalBytes <= 0 {
		t.Errorf("gauge JournalBytes = %d, want %d (unreset)", after.JournalBytes, window1.JournalBytes)
	}
	if after.Segments != window1.Segments || after.Segments < 1 {
		t.Errorf("gauge Segments = %d, want %d (unreset)", after.Segments, window1.Segments)
	}

	// Re-accumulation starts from zero, not from the pre-reset totals.
	for i := 3; i < 5; i++ {
		if err := s.AppendCharge(stream.ChargeRecord{User: "u", Window: i, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	window2 := s.Stats(true)
	if window2.JournalAppends != 2 || window2.JournalSyncs != 2 || window2.BatchSizes.Count != 2 {
		t.Errorf("second window = %+v, want 2 appends/syncs/batches", window2)
	}
	if window2.FlushLatencySeconds.Max <= 0 || window2.FlushLatencySeconds.Count != 2 {
		t.Errorf("second-window latency histogram = %+v", window2.FlushLatencySeconds)
	}
}

// TestHistogramQuantileAndString exercises the promoted obs.Histogram
// through the streamstore alias, pinning that the wire type kept its
// behavior across the move.
func TestHistogramQuantileAndString(t *testing.T) {
	h := obs.NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{1, 1, 2, 3, 8} {
		h.Observe(v)
	}
	if h.Count != 5 || h.Sum != 15 || h.Max != 8 {
		t.Fatalf("histogram aggregates = %+v", h)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := h.Quantile(1); got != 8 {
		t.Errorf("p100 = %v, want max 8", got)
	}
	if got := h.Mean(); math.Abs(got-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", got)
	}
	if s := h.String(); s == "" || s == "empty" {
		t.Errorf("String = %q", s)
	}
}

// TestStatsResetConcurrentAppends hammers Stats(true) against
// concurrent durable appends (run it with -race): every append must
// land in exactly one window — the windowed counts summed across every
// reset plus the final residue equal the true total, nothing lost or
// double-counted across reset boundaries.
func TestStatsResetConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	const (
		writers    = 4
		perWriter  = 200
		totalWrite = writers * perWriter
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	var windowSum int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			windowSum += s.Stats(true).JournalAppends
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.AppendCharge(stream.ChargeRecord{
					User: "u", Window: w*perWriter + i, Epsilon: 0.01,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writerWg.Wait()
	close(done)
	wg.Wait()
	windowSum += s.Stats(false).JournalAppends
	if windowSum != totalWrite {
		t.Fatalf("windowed appends sum to %d, want %d (lost or double-counted across resets)",
			windowSum, totalWrite)
	}
	// Gauges survived every reset.
	if st := s.Stats(false); st.JournalBytes <= 0 || st.Segments < 1 {
		t.Fatalf("gauges after resets = %+v", st)
	}
}

// TestStoreMetricsStayMonotoneAcrossResets pins the one-source-of-truth
// contract: the registered /metrics collectors read the same counters
// Stats does, match its cumulative view exactly, and keep growing
// through Stats(true) resets instead of snapping back.
func TestStoreMetricsStayMonotoneAcrossResets(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := OpenWith(dir, Options{MaxBatch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	scrape := func(name string) float64 {
		t.Helper()
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		p, err := obstest.ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parse exposition: %v", err)
		}
		v, err := p.Value(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	for i := 0; i < 3; i++ {
		if err := s.AppendCharge(stream.ChargeRecord{User: "u", Window: i, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := scrape("pptd_store_journal_appends_total"); got != 3 {
		t.Fatalf("appends series = %v, want 3", got)
	}
	if got, want := scrape("pptd_store_journal_bytes"), float64(s.Stats(false).JournalBytes); got != want {
		t.Fatalf("journal bytes series = %v, stats say %v", got, want)
	}
	_ = s.Stats(true) // windowed JSON view resets...
	for i := 3; i < 5; i++ {
		if err := s.AppendCharge(stream.ChargeRecord{User: "u", Window: i, Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// ...but the exposition stays cumulative: 5, not the window's 2.
	if got := scrape("pptd_store_journal_appends_total"); got != 5 {
		t.Fatalf("appends series after reset = %v, want 5 (monotone)", got)
	}
	if got := s.Stats(false).JournalAppends; got != 2 {
		t.Fatalf("windowed appends = %v, want 2", got)
	}
	if got := scrape("pptd_store_flush_duration_seconds_count"); got != 5 {
		t.Fatalf("flush histogram count = %v, want 5", got)
	}
}
