package stream

import (
	"errors"
	"strconv"
	"time"

	"pptd/internal/obs"
)

// Bucket bounds for the engine's two histograms: window-close duration
// in seconds (estimation is CPU-bound, 100µs to 10s covers toy and
// production object counts) and per-user cumulative epsilon (doubling
// from a fraction of one window's charge up past any sane budget).
var (
	closeDurationBounds = []float64{
		100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
		1, 2.5, 5, 10,
	}
	cumulativeEpsilonBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128}
	// estimateIterationBounds buckets per-window iteration counts up to
	// the default cap (truth.DefaultMaxIterations = 100).
	estimateIterationBounds = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 100}
)

// engineMetrics holds the engine's registry instruments. A nil
// *engineMetrics (no Config.Metrics) is valid and makes every method a
// no-op, so the hot path carries no conditionals beyond one nil check.
type engineMetrics struct {
	claimsIngested   *obs.Counter
	rejected         *obs.CounterVec
	windowsClosed    *obs.Counter
	closeDuration    *obs.HistogramMetric
	cumEps           *obs.HistogramMetric
	estimateIters    *obs.HistogramMetric
	estimateDuration *obs.HistogramMetric
	usersEvicted     *obs.Counter
	usersReadmitted  *obs.Counter
	spillFailures    *obs.Counter
}

func newEngineMetrics(reg *obs.Registry, estimator string) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		estimateIters: reg.Histogram("pptd_stream_estimate_iterations",
			"Iterations per estimation run, labeled by the configured estimator.",
			estimateIterationBounds, "estimator", estimator),
		estimateDuration: reg.Histogram("pptd_stream_estimate_duration_seconds",
			"Wall time per estimation run (the iteration loop only, excluding "+
				"shard drain, decay, and publish), labeled by the configured estimator.",
			closeDurationBounds, "estimator", estimator),
		claimsIngested: reg.Counter("pptd_stream_claims_ingested_total",
			"Claims accepted into the stream (after validation, budget, and ledger)."),
		rejected: reg.CounterVec("pptd_stream_submissions_rejected_total",
			"Submissions rejected before folding into the statistics, by reason.",
			"reason"),
		windowsClosed: reg.Counter("pptd_stream_windows_closed_total",
			"Windows closed (estimates published)."),
		closeDuration: reg.Histogram("pptd_stream_window_close_duration_seconds",
			"Wall time per window close: shard drain, estimation, decay, and publish.",
			closeDurationBounds),
		cumEps: reg.Histogram("pptd_stream_user_cumulative_epsilon",
			"Per-user cumulative epsilon observed at each accepted charge; the "+
				"distribution of budget spending across the stream's submissions.",
			cumulativeEpsilonBounds),
		usersEvicted: reg.Counter("pptd_stream_users_evicted_total",
			"Users evicted from the resident set at window close, their state "+
				"spilled durably to the user store (residency caps)."),
		usersReadmitted: reg.Counter("pptd_stream_users_readmitted_total",
			"Previously evicted users re-admitted from the user store on a new claim."),
		spillFailures: reg.Counter("pptd_stream_user_spill_failures_total",
			"Eviction rounds abandoned because the spill could not be made "+
				"durable; the users stayed resident and the next close retries."),
	}
}

// registerEngineGauges exposes the live queue and population gauges;
// called once from New, after the shards exist.
func registerEngineGauges(reg *obs.Registry, e *Engine) {
	if reg == nil {
		return
	}
	for i := range e.shards {
		s := e.shards[i]
		reg.GaugeFunc("pptd_stream_shard_queue_depth",
			"Claim batches buffered in each shard's ingestion channel (backpressure).",
			func() float64 { return float64(len(s.in)) },
			"shard", strconv.Itoa(i))
	}
	reg.GaugeFunc("pptd_stream_tracked_users",
		"Distinct client IDs the engine accounts for: resident plus "+
			"evicted-to-store (privacy accounting never forgets a charge).",
		func() float64 { return float64(e.users.tracked()) })
	reg.GaugeFunc("pptd_stream_effective_users",
		"Effective number of users behind the latest closed window's estimate, "+
			"(sum w)^2 / sum w^2 over the active users' weights; 0 before the first close.",
		func() float64 {
			if res := e.Snapshot(); res != nil {
				return res.EffectiveUsers
			}
			return 0
		})
	reg.GaugeFunc("pptd_stream_resident_users",
		"Users held resident in memory; bounded by the configured residency "+
			"cap (MaxResidentUsers), equal to tracked users when unbounded.",
		func() float64 { return float64(e.users.count()) })
}

func (m *engineMetrics) ingested(n int) {
	if m != nil {
		m.claimsIngested.Add(int64(n))
	}
}

// reject counts one refused submission under its taxonomy reason,
// derived from the sentinel the caller is about to return.
func (m *engineMetrics) reject(err error) {
	if m == nil {
		return
	}
	reason := "bad_claim"
	switch {
	case errors.Is(err, ErrBudgetExhausted):
		reason = "budget_exhausted"
	case errors.Is(err, ErrDuplicateWindow):
		reason = "duplicate_window"
	case errors.Is(err, ErrLedger):
		reason = "ledger"
	case errors.Is(err, ErrEngineClosed):
		reason = "engine_closed"
	case errors.Is(err, ErrUserStore):
		reason = "user_store"
	}
	m.rejected.With(reason).Inc()
}

// estimated records one estimation run (including the re-runs of journal
// replay, which estimate exactly as live closes did).
func (m *engineMetrics) estimated(iterations int, elapsed time.Duration) {
	if m != nil {
		m.estimateIters.Observe(float64(iterations))
		m.estimateDuration.Observe(elapsed.Seconds())
	}
}

func (m *engineMetrics) windowClosed(elapsed time.Duration) {
	if m != nil {
		m.windowsClosed.Inc()
		m.closeDuration.Observe(elapsed.Seconds())
	}
}

func (m *engineMetrics) observeCumEps(cum float64) {
	if m != nil && cum > 0 {
		m.cumEps.Observe(cum)
	}
}

func (m *engineMetrics) evicted(n int) {
	if m != nil {
		m.usersEvicted.Add(int64(n))
	}
}

func (m *engineMetrics) readmitted(n int) {
	if m != nil {
		m.usersReadmitted.Add(int64(n))
	}
}

func (m *engineMetrics) spillFailed() {
	if m != nil {
		m.spillFailures.Inc()
	}
}
