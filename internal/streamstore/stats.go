package streamstore

import (
	"pptd/internal/obs"
)

// Bucket bounds for the two group-commit histograms: batch sizes in
// records (powers of two up to the batch cap, maxBatch) and flush
// latencies in seconds (50µs up to 1s; an fsync on real hardware lands
// in the middle of this range).
var (
	batchSizeBounds    = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	flushLatencyBounds = []float64{
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1,
	}
)

// StoreStats is a point-in-time snapshot of the store's observability
// counters (crowd.StreamServer.Stats on a durable streaming server). The
// append/sync ratio and the two histograms show how group commit meets
// the observed load: batches pinned at 1 under concurrency mean appends
// are not overlapping a sync, and the flush latency is what each ack
// waits for.
type StoreStats struct {
	// JournalAppends counts accepted AppendCharge calls; JournalSyncs
	// counts the fsyncs that made them durable. Appends/Syncs is the
	// group-commit amortization factor.
	JournalAppends int64 `json:"journalAppends"`
	JournalSyncs   int64 `json:"journalSyncs"`
	// JournalBytes is the journal's current live size across every
	// segment (a gauge: Stats(true) does not reset it).
	JournalBytes int64 `json:"journalBytes"`
	// Segments is the current number of live journal segment files,
	// including the active one (a gauge). SegmentsSealed and
	// SegmentsDeleted count segment rolls and compaction deletions
	// (one compaction pass runs per snapshot, so Snapshots counts
	// those). Sealed minus deleted trending up means snapshots are not
	// keeping pace with ingest.
	Segments        int   `json:"segments"`
	SegmentsSealed  int64 `json:"segmentsSealed"`
	SegmentsDeleted int64 `json:"segmentsDeleted"`
	// Snapshots counts engine snapshots written; ResultsSaved counts
	// persisted window results.
	Snapshots    int64 `json:"snapshots"`
	ResultsSaved int64 `json:"resultsSaved"`
	// UserSpills counts users spilled to the user-spill file by
	// residency-cap eviction; UserLoads counts spill records read back
	// on re-admission. SpilledUsers is the number of distinct users
	// currently living in the spill store (a gauge, never reset).
	UserSpills   int64 `json:"userSpills"`
	UserLoads    int64 `json:"userLoads"`
	SpilledUsers int   `json:"spilledUsers"`
	// BatchSizes is the histogram of records per group-commit flush.
	BatchSizes obs.Histogram `json:"batchSizes"`
	// FlushLatencySeconds is the histogram of write+fsync wall time per
	// flush, in seconds.
	FlushLatencySeconds obs.Histogram `json:"flushLatencySeconds"`
}

// statsBase records the cumulative counter values at the last
// Stats(reset): the store's fields only ever grow (they also back the
// monotone /metrics series), and the windowed view Stats returns is
// cumulative-minus-base. Gauges have no base — they describe the
// present.
type statsBase struct {
	journalAppends  int64
	journalSyncs    int64
	segmentsSealed  int64
	segmentsDeleted int64
	snapshots       int64
	resultsSaved    int64
	userSpills      int64
	userLoads       int64
	batchSizes      obs.Histogram
	flushLatency    obs.Histogram
}

// Stats returns a copy of the store's counters and histograms. Safe for
// concurrent use with appends and snapshots.
//
// With reset true, the window boundary advances after the copy is
// taken: the cumulative counters and both histograms restart from zero
// in the next snapshot, so a long-lived node can poll in windows and
// see rates instead of an all-time blur (an fsync latency regression in
// hour 40 is invisible inside a 40-hour histogram). Gauges —
// JournalBytes, Segments — describe the present and are never reset.
// Histogram Max is the one all-time exception: it is a high-water mark
// that survives resets, because a window's true maximum cannot be
// recovered from two cumulative snapshots.
//
// Resetting is a read-side view change only: the store's underlying
// counters stay monotone, which is what keeps the node's /metrics
// series (same source, sampled at scrape) Prometheus-legal regardless
// of how often a stats poller resets. Concurrent flushes serialize with
// the reset under the store lock, so no observation is lost or
// double-counted across the boundary — every append lands in exactly
// one window.
func (s *Store) Stats(reset bool) StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Lock order s.mu -> spillMu, matching Close.
	s.spillMu.Lock()
	userSpills, userLoads, spilled := s.userSpills, s.userLoads, len(s.spillIndex)
	s.spillMu.Unlock()
	st := StoreStats{
		JournalAppends:      s.journalAppends - s.base.journalAppends,
		JournalSyncs:        s.journalSyncs - s.base.journalSyncs,
		JournalBytes:        s.journalBytesLocked(),
		Segments:            len(s.sealed) + 1,
		SegmentsSealed:      s.segmentsSealed - s.base.segmentsSealed,
		SegmentsDeleted:     s.segmentsDeleted - s.base.segmentsDeleted,
		Snapshots:           s.snapshots - s.base.snapshots,
		ResultsSaved:        s.resultsSaved - s.base.resultsSaved,
		UserSpills:          userSpills - s.base.userSpills,
		UserLoads:           userLoads - s.base.userLoads,
		SpilledUsers:        spilled,
		BatchSizes:          s.batchSizes.Sub(s.base.batchSizes),
		FlushLatencySeconds: s.flushLatency.Sub(s.base.flushLatency),
	}
	if reset {
		s.base = statsBase{
			journalAppends:  s.journalAppends,
			journalSyncs:    s.journalSyncs,
			segmentsSealed:  s.segmentsSealed,
			segmentsDeleted: s.segmentsDeleted,
			snapshots:       s.snapshots,
			resultsSaved:    s.resultsSaved,
			userSpills:      userSpills,
			userLoads:       userLoads,
			batchSizes:      s.batchSizes.Clone(),
			flushLatency:    s.flushLatency.Clone(),
		}
	}
	return st
}

// registerMetrics exposes the store's cumulative counters on the given
// registry as callback instruments: the exposition samples the very
// fields Stats reads, so Stats and /metrics cannot drift.
// The registry must not already carry another store's collectors.
func (s *Store) registerMetrics(reg *obs.Registry) {
	counter := func(name, help string, f func() int64) {
		reg.CounterFunc(name, help, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(f())
		})
	}
	counter("pptd_store_journal_appends_total",
		"Ledger records appended to the journal (accepted AppendCharge and claim-WAL writes).",
		func() int64 { return s.journalAppends })
	counter("pptd_store_journal_syncs_total",
		"Journal fsyncs issued; appends/syncs is the group-commit amortization factor.",
		func() int64 { return s.journalSyncs })
	counter("pptd_store_segments_sealed_total",
		"Journal segments sealed (rolled) since open.",
		func() int64 { return s.segmentsSealed })
	counter("pptd_store_segments_deleted_total",
		"Sealed journal segments deleted by snapshot compaction.",
		func() int64 { return s.segmentsDeleted })
	counter("pptd_store_snapshots_total",
		"Engine snapshots written.",
		func() int64 { return s.snapshots })
	counter("pptd_store_results_saved_total",
		"Window results persisted.",
		func() int64 { return s.resultsSaved })
	spillCounter := func(name, help string, f func() int64) {
		reg.CounterFunc(name, help, func() float64 {
			s.spillMu.Lock()
			defer s.spillMu.Unlock()
			return float64(f())
		})
	}
	spillCounter("pptd_store_user_spills_total",
		"Users spilled to the user-spill file by residency-cap eviction.",
		func() int64 { return s.userSpills })
	spillCounter("pptd_store_user_loads_total",
		"Spill records read back on user re-admission.",
		func() int64 { return s.userLoads })
	reg.GaugeFunc("pptd_store_spilled_users",
		"Distinct users currently living in the user-spill file.",
		func() float64 {
			s.spillMu.Lock()
			defer s.spillMu.Unlock()
			return float64(len(s.spillIndex))
		})
	reg.GaugeFunc("pptd_store_journal_bytes",
		"Live journal size in bytes across every segment.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.journalBytesLocked())
		})
	reg.GaugeFunc("pptd_store_segments",
		"Live journal segment files, including the active one.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sealed) + 1)
		})
	reg.HistogramFunc("pptd_store_commit_batch_records",
		"Records per group-commit flush.",
		func() obs.Histogram {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.batchSizes.Clone()
		})
	reg.HistogramFunc("pptd_store_flush_duration_seconds",
		"Write+fsync wall time per group-commit flush, in seconds.",
		func() obs.Histogram {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.flushLatency.Clone()
		})
}
