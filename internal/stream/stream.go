// Package stream implements an online, windowed truth-discovery engine
// for continuous submission streams — the streaming counterpart of the
// batch pipeline in internal/core. Perturbed claims are ingested
// concurrently into worker shards (objects hash-partitioned across
// shards, batched channel hand-off), folded into exponentially-decayed
// sufficient statistics per (object, user), and truths plus user weights
// are re-estimated incrementally when a window closes. User weights
// carry over between windows as the warm start of the next estimation,
// and an optional privacy accountant charges every user's cumulative
// (epsilon, delta) budget once per window they participate in, so the
// privacy loss of a long-lived stream is tracked and enforceable. The
// accounting unit matches the release unit: with accounting enabled a
// user gets exactly one submission per window, with at most one claim
// per object, and both epsilon and delta compose linearly across the
// windows a user is charged for.
//
// The per-window estimation is pluggable behind the Estimator interface:
// Config.Estimator selects an incremental implementation of one of the
// batch methods in internal/truth — CRH (the default), GTM, or CATD —
// and each one holds the same equivalence property: on a closed window
// with decay disabled and at most one claim per (object, user) pair, its
// truths and weights agree with the batch method's Run over the same
// claims to floating-point reordering error (well within 1e-9;
// property-tested). Estimators are stateless: each user's carry weight
// is their whole cross-window memory (GTM's is the precision 1/σ²), and
// a snapshot names the estimator that wrote it so recovery under a
// different one fails loudly (ErrEstimatorMismatch) instead of
// misfolding.
package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pptd/internal/core"
	"pptd/internal/obs"
)

var (
	// ErrBadConfig reports an invalid engine configuration.
	ErrBadConfig = errors.New("stream: invalid config")
	// ErrBadClaim reports a claim with an out-of-range object or a
	// non-finite value.
	ErrBadClaim = errors.New("stream: bad claim")
	// ErrBudgetExhausted reports a submission from a user whose cumulative
	// privacy budget would be exceeded by participating in this window.
	ErrBudgetExhausted = errors.New("stream: privacy budget exhausted")
	// ErrDuplicateWindow reports a second submission from the same user
	// into the same open window while privacy accounting is enabled: each
	// window's epsilon charge pays for exactly one perturbed release, so
	// further releases are rejected rather than averaged in for free.
	ErrDuplicateWindow = errors.New("stream: duplicate submission in window")
	// ErrEngineClosed reports use of an engine after Close.
	ErrEngineClosed = errors.New("stream: engine closed")
	// ErrEmptyWindow reports a window close before any claim ever arrived.
	ErrEmptyWindow = errors.New("stream: no claims ingested yet")
	// ErrUserStore reports a failed spill-store operation while admitting
	// a user: their spilled state could not be read back, so the engine
	// rejects the submission rather than risk resetting their budget.
	ErrUserStore = errors.New("stream: user spill store failed")
)

// DefaultHistoryWindows is the result-ring capacity used when
// Config.HistoryWindows is zero: enough recent windows that a late
// reader polling a live stream can catch up, small enough that the
// retained estimates stay negligible next to the sufficient statistics.
const DefaultHistoryWindows = 8

// shardQueueBatches is each shard's ingestion channel buffer, in
// batches: the backpressure depth before Ingest blocks.
const shardQueueBatches = 64

// Claim is one perturbed (object, value) report inside a streamed
// submission. Values must already be perturbed on the client device; the
// engine, like the batch server, only ever sees noisy data.
type Claim struct {
	Object int     `json:"object"`
	Value  float64 `json:"value"`
}

// Config parameterizes a streaming engine.
type Config struct {
	// NumObjects is the number of micro-tasks (objects) in the stream,
	// at most math.MaxUint32.
	NumObjects int
	// NumShards is the number of ingestion/estimation worker shards.
	// Objects are partitioned across shards by object index. Zero means
	// min(GOMAXPROCS, 8).
	NumShards int
	// Estimator selects the per-window estimation algorithm: EstimatorCRH
	// (the default when empty), EstimatorGTM, or EstimatorCATD. Each is
	// the incremental counterpart of the same-named batch method in
	// internal/truth. The choice is recorded in every exported snapshot;
	// restoring a snapshot written by a different estimator fails with
	// ErrEstimatorMismatch.
	Estimator string
	// Decay is the per-window retention factor in (0, 1] applied to every
	// sufficient statistic when a window closes; 1 (the default via zero
	// value 0 meaning 1) keeps all history, smaller values forget old
	// claims exponentially. Statistics whose decayed mass drops below an
	// internal floor are evicted to bound memory.
	Decay float64
	// DisableCarryover resets user weights to the uniform batch
	// initialization at every window instead of warm-starting from the
	// previous window's estimates.
	DisableCarryover bool
	// HistoryWindows bounds the ring of recent WindowResults the engine
	// retains for ResultAt (late readers asking for a specific closed
	// window, e.g. GET /v1/stream/truths?window=N). Zero means
	// DefaultHistoryWindows; 1 keeps only the latest result, matching the
	// pre-history behavior.
	HistoryWindows int

	// Lambda1 enables privacy accounting when positive: it is the
	// data-quality rate the accountant assumes (as in core.NewAccountant).
	Lambda1 float64
	// Lambda2 is the perturbation rate published to users; required when
	// accounting is enabled.
	Lambda2 float64
	// Delta is the LDP delta each window's epsilon is accounted at;
	// required in (0, 1) when accounting is enabled. Like epsilon, delta
	// composes linearly across windows under basic composition: a user
	// charged for k windows holds a (k*eps, k*Delta)-LDP guarantee (see
	// PrivacyReport.CumulativeDelta).
	Delta float64
	// EpsilonBudget caps each user's cumulative epsilon across windows;
	// zero tracks spending without enforcing. Submissions that would
	// start a new window past the cap are rejected with
	// ErrBudgetExhausted.
	EpsilonBudget float64
	// Ledger, when set, is the durable privacy ledger: every accepted
	// (user, window) charge is appended — and must be durable — before
	// Ingest acknowledges the submission, so cumulative budgets survive
	// a crash. An append failure rolls the in-memory charge back and the
	// submission fails with ErrLedger. Requires accounting (Lambda1 > 0).
	Ledger Ledger
	// MaxResidentUsers bounds the number of users held resident in
	// memory: when a window close leaves more, the least-recently-seen
	// users whose sufficient statistics have fully decayed away are
	// spilled to the UserStore and evicted, to be re-admitted
	// transparently on their next claim. Zero means unbounded. Requires
	// UserStore (the spilled budget state must be durable, or eviction
	// would reset privacy budgets).
	MaxResidentUsers int
	// UserStore, when set, is the durable spill store for evicted users'
	// state (carry weight, cumulative budget). Eviction only completes
	// after SpillUsers returns — the record must be durable before the
	// in-memory state is dropped — and an unknown
	// user's admission consults LoadUser before creating fresh state, so
	// an exhausted user stays exhausted across evict/readmit.
	// internal/streamstore implements it next to the charge journal.
	UserStore UserStore
	// ClaimWAL additionally journals each accepted submission's claims
	// inside its ledger record, making the sufficient statistics as
	// durable as the budget: the user's epsilon never pays for a release
	// that a crash erases before it reached an estimate. Recovery
	// (ReplayJournal) folds the claims back and re-runs any window closes
	// the journal implies, so a kill-and-recover engine matches an
	// uninterrupted one. Requires Ledger.
	ClaimWAL bool
	// Metrics, when non-nil, receives the engine's pptd_stream_* series:
	// claims ingested, submissions rejected by reason, window-close
	// count and duration, per-shard queue depth, tracked users, and the
	// cumulative-epsilon distribution. The registry must not already
	// carry another engine's collectors.
	Metrics *obs.Registry
}

// Validate checks every field rule and fills the zero-value defaults in,
// so a validated config reads as the engine will run it and validating
// it again changes nothing. It is the one owner of those rules: New runs
// it, and a host (pptd.NewNode) runs it on the config it resolved before
// opening anything. What it cannot see is whether the storage a field
// needs has been attached yet — the host wires Ledger and UserStore in
// after validating — so those two checks live in New.
func (c *Config) Validate() error {
	switch {
	case c.NumObjects <= 0:
		return fmt.Errorf("%w: NumObjects = %d", ErrBadConfig, c.NumObjects)
	case uint64(c.NumObjects) > math.MaxUint32:
		// A shard row stores each statistic's object as a uint32.
		return fmt.Errorf("%w: NumObjects = %d exceeds %d", ErrBadConfig, c.NumObjects, uint64(math.MaxUint32))
	case c.NumShards < 0:
		return fmt.Errorf("%w: NumShards = %d", ErrBadConfig, c.NumShards)
	case c.Decay < 0 || c.Decay > 1 || math.IsNaN(c.Decay):
		return fmt.Errorf("%w: Decay = %v", ErrBadConfig, c.Decay)
	case c.EpsilonBudget < 0 || math.IsNaN(c.EpsilonBudget) || math.IsInf(c.EpsilonBudget, 0):
		return fmt.Errorf("%w: EpsilonBudget = %v", ErrBadConfig, c.EpsilonBudget)
	case c.HistoryWindows < 0:
		return fmt.Errorf("%w: HistoryWindows = %d", ErrBadConfig, c.HistoryWindows)
	case c.MaxResidentUsers < 0:
		return fmt.Errorf("%w: MaxResidentUsers = %d", ErrBadConfig, c.MaxResidentUsers)
	}
	if c.HistoryWindows == 0 {
		c.HistoryWindows = DefaultHistoryWindows
	}
	if c.NumShards == 0 {
		c.NumShards = runtime.GOMAXPROCS(0)
		if c.NumShards > 8 {
			c.NumShards = 8
		}
	}
	if c.Decay == 0 {
		c.Decay = 1
	}
	if c.Estimator == "" {
		c.Estimator = EstimatorCRH
	}
	if !KnownEstimator(c.Estimator) {
		return fmt.Errorf("%w: unknown estimator %q (have %v)", ErrBadConfig, c.Estimator, EstimatorNames)
	}
	if c.Lambda1 < 0 || math.IsNaN(c.Lambda1) || math.IsInf(c.Lambda1, 0) {
		return fmt.Errorf("%w: Lambda1 = %v", ErrBadConfig, c.Lambda1)
	}
	if c.Lambda2 < 0 || math.IsNaN(c.Lambda2) || math.IsInf(c.Lambda2, 0) {
		return fmt.Errorf("%w: Lambda2 = %v", ErrBadConfig, c.Lambda2)
	}
	if c.Lambda1 > 0 {
		if c.Lambda2 == 0 {
			return fmt.Errorf("%w: Lambda2 = 0 with accounting enabled", ErrBadConfig)
		}
		if c.Delta <= 0 || c.Delta >= 1 || math.IsNaN(c.Delta) {
			return fmt.Errorf("%w: Delta = %v with accounting enabled", ErrBadConfig, c.Delta)
		}
	} else {
		// Half-configured accounting is a misconfiguration, not a silent
		// no-op: a Delta or budget without Lambda1 would publish privacy
		// parameters while no accounting actually runs.
		if c.EpsilonBudget > 0 {
			return fmt.Errorf("%w: EpsilonBudget without Lambda1 accounting", ErrBadConfig)
		}
		if c.Delta != 0 {
			return fmt.Errorf("%w: Delta = %v without Lambda1 accounting", ErrBadConfig, c.Delta)
		}
		if c.Ledger != nil {
			return fmt.Errorf("%w: Ledger without Lambda1 accounting", ErrBadConfig)
		}
	}
	return nil
}

// WindowResult is the estimate published when a window closes.
type WindowResult struct {
	// Window is the 1-based index of the closed window.
	Window int
	// Estimator names the estimator that produced this result ("crh",
	// "gtm", "catd"); empty on results persisted before estimators were
	// pluggable (which were always CRH).
	Estimator string `json:",omitempty"`
	// Truths holds the estimated truth per object; objects with no live
	// statistics are NaN (see Covered).
	Truths []float64
	// Covered marks objects that had at least one live statistic.
	Covered []bool
	// Weights holds the estimated weight per user active in this
	// estimate, keyed by client ID. Only the result CloseWindow returns
	// carries it: the history ring and the persisted result drop the
	// O(users) map, and WeightsAt serves the latest window's from the carry.
	Weights map[string]float64 `json:"-"`
	// EffectiveUsers is (Σw)²/Σw² over the active users' weights — how many
	// equally weighted users the estimate amounts to — and MaxWeightShare
	// is max w/Σw. Both are 0 when every weight is.
	EffectiveUsers float64
	MaxWeightShare float64
	// Iterations and Converged mirror truth.Result for the estimation
	// loop of this window.
	Iterations int
	Converged  bool
	// ActiveUsers is the number of users with live statistics.
	ActiveUsers int
	// WindowClaims is the number of claims ingested during this window;
	// TotalClaims counts the whole stream so far.
	WindowClaims int64
	TotalClaims  int64
	// Privacy summarizes cumulative budget spending; nil when accounting
	// is disabled.
	Privacy *PrivacyReport
}

// Engine is a sharded streaming truth-discovery engine. Ingest may be
// called from any number of goroutines; CloseWindow serializes against
// ingestion and publishes a fresh estimate.
type Engine struct {
	cfg       Config
	epsWindow float64 // epsilon charged per active window; 0 = accounting off
	est       Estimator

	users   *registry
	shards  []*shard
	wg      sync.WaitGroup
	metrics *engineMetrics // nil-safe; nil when Config.Metrics is nil
	scratch *sync.Pool     // *ingestScratch, sized to the shard count

	// admitMu serializes the slow path of user admission (spill-store
	// lookup plus re-admission) — Ingest holds the window lock
	// shared, so concurrent admissions of unknown users need their own
	// exclusion.
	admitMu sync.Mutex

	// mu is the window lock: ingestion holds it shared, CloseWindow and
	// Close hold it exclusively.
	mu     sync.RWMutex
	closed bool
	window int // completed windows

	windowClaims atomic.Int64
	totalClaims  atomic.Int64

	// histMu guards history, the bounded ring of recent published
	// results (ascending by Window, at most cfg.HistoryWindows entries).
	histMu  sync.Mutex
	history []*WindowResult
}

// New starts an engine with the given configuration. Callers must
// eventually Close it to stop the shard workers.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxResidentUsers > 0 && cfg.UserStore == nil {
		// Evicting without a durable spill store would hand evicted users
		// their privacy budget back on their next claim.
		return nil, fmt.Errorf("%w: residency cap without a UserStore", ErrBadConfig)
	}
	if cfg.ClaimWAL && cfg.Ledger == nil {
		return nil, fmt.Errorf("%w: ClaimWAL without a Ledger", ErrBadConfig)
	}
	e := &Engine{
		cfg:   cfg,
		est:   newEstimator(&cfg),
		users: newRegistry(),
	}
	if cfg.Lambda1 > 0 {
		acct, err := core.NewAccountant(cfg.Lambda1)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		mech, err := core.NewMechanism(cfg.Lambda2)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		eps, err := acct.Epsilon(mech, cfg.Delta)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		e.epsWindow = eps
	}
	e.scratch = newIngestScratchPool(cfg.NumShards)
	e.shards = make([]*shard, cfg.NumShards)
	for i := range e.shards {
		e.shards[i] = newShard(shardQueueBatches, i, cfg.NumShards, cfg.NumObjects)
		e.wg.Add(1)
		go func(s *shard) {
			defer e.wg.Done()
			s.run()
		}(e.shards[i])
	}
	e.metrics = newEngineMetrics(cfg.Metrics, cfg.Estimator)
	registerEngineGauges(cfg.Metrics, e)
	return e, nil
}

// EpsilonPerWindow returns the epsilon charged to a user for each window
// they participate in (0 when accounting is disabled).
func (e *Engine) EpsilonPerWindow() float64 { return e.epsWindow }

// NumShards returns the shard count the engine runs with.
func (e *Engine) NumShards() int { return e.cfg.NumShards }

// Estimator returns the name of the per-window estimator the engine runs
// ("crh", "gtm", "catd").
func (e *Engine) Estimator() string { return e.cfg.Estimator }

// NumObjects returns the number of objects in the stream.
func (e *Engine) NumObjects() int { return e.cfg.NumObjects }

// Lambda2 returns the perturbation rate published to users (0 when none
// was configured).
func (e *Engine) Lambda2() float64 { return e.cfg.Lambda2 }

// Delta returns the LDP delta windows are accounted at (0 when
// accounting is disabled).
func (e *Engine) Delta() float64 { return e.cfg.Delta }

// EpsilonBudget returns the enforced cumulative epsilon cap (0 when
// tracking only).
func (e *Engine) EpsilonBudget() float64 { return e.cfg.EpsilonBudget }

// ResidentUsers returns the number of users currently held resident in
// memory (the pptd_stream_resident_users gauge). Without a residency cap
// it equals the number of distinct users ever seen.
func (e *Engine) ResidentUsers() int { return e.users.count() }

// MaxResidentUsers returns the configured residency cap (0 = unbounded).
func (e *Engine) MaxResidentUsers() int { return e.cfg.MaxResidentUsers }

// TrackedUsers returns the number of users the engine accounts for:
// resident plus evicted-to-store.
func (e *Engine) TrackedUsers() int { return e.users.tracked() }

// Ingest folds one user's batch of perturbed claims into the current
// window and returns the accepted claim count plus the 1-based index of
// the open window the batch joined. The whole batch is accepted or
// rejected: bad claims fail with ErrBadClaim, and, when a budget is
// enforced, a user who cannot afford the current window fails with
// ErrBudgetExhausted.
//
// With privacy accounting enabled the engine enforces the release
// contract the per-window epsilon is derived for — one perturbed release
// per (user, object, window): a batch carrying the same object twice
// fails with ErrBadClaim, and a second batch from the same user inside
// one open window fails with ErrDuplicateWindow. Without accounting the
// engine is a plain streaming aggregator and repeat submissions simply
// fold into the decayed statistics.
//
// Safe for concurrent use; a batch racing a CloseWindow lands in one
// window or the next, never split.
func (e *Engine) Ingest(user string, claims []Claim) (int, int, error) {
	n, window, err := e.ingest(user, nil, claims)
	if err != nil {
		e.metrics.reject(err)
	}
	return n, window, err
}

// IngestBytes is Ingest for callers holding the user ID as a byte slice
// — above all the binary wire decoder, whose pooled buffers must not
// force a string allocation per request. Semantics are identical to
// Ingest; the ID is only materialized as a string the first time a user
// is admitted, so the steady-state path performs no per-claim heap
// allocations. The engine does not retain user or claims past the call.
func (e *Engine) IngestBytes(user []byte, claims []Claim) (int, int, error) {
	n, window, err := e.ingest("", user, claims)
	if err != nil {
		e.metrics.reject(err)
	}
	return n, window, err
}

// ingest backs Ingest and IngestBytes without the rejection accounting
// (every error path funnels through one metrics classification in the
// wrappers). Exactly one of user and key identifies the submitter; the
// byte form avoids allocating for IDs the registry already interned.
func (e *Engine) ingest(user string, key []byte, claims []Claim) (int, int, error) {
	if user == "" && len(key) == 0 {
		return 0, 0, fmt.Errorf("%w: empty user id", ErrBadClaim)
	}
	if len(claims) == 0 {
		return 0, 0, fmt.Errorf("%w: empty batch", ErrBadClaim)
	}
	sc := e.scratch.Get().(*ingestScratch)
	defer e.scratch.Put(sc)
	var seen map[int]struct{}
	if e.epsWindow > 0 {
		seen = sc.seen
		clear(seen)
	}
	for _, c := range claims {
		if c.Object < 0 || c.Object >= e.cfg.NumObjects {
			return 0, 0, fmt.Errorf("%w: object %d of %d", ErrBadClaim, c.Object, e.cfg.NumObjects)
		}
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return 0, 0, fmt.Errorf("%w: non-finite value for object %d", ErrBadClaim, c.Object)
		}
		if seen != nil {
			if _, dup := seen[c.Object]; dup {
				return 0, 0, fmt.Errorf("%w: duplicate object %d in batch", ErrBadClaim, c.Object)
			}
			seen[c.Object] = struct{}{}
		}
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0, 0, ErrEngineClosed
	}
	ref, id, fresh, err := e.admitKey(user, key)
	if err != nil {
		return 0, 0, err
	}
	prevWindow, cumEps, err := e.users.charge(ref, e.window, e.epsWindow, e.cfg.EpsilonBudget)
	if errors.Is(err, errStaleUser) {
		// A concurrent submission that freshly admitted this user was
		// rejected and dropped them after our lookup: look them up again,
		// once (a second drop in between fails the submission).
		if ref, id, fresh, err = e.admitKey(user, key); err != nil {
			return 0, 0, err
		}
		prevWindow, cumEps, err = e.users.charge(ref, e.window, e.epsWindow, e.cfg.EpsilonBudget)
	}
	if err != nil {
		// A freshly admitted user whose submission is then rejected is
		// dropped again without a re-spill: the on-disk record (or, for a
		// brand-new user, their absence) still describes them exactly, so
		// a rejected client — exhausted or otherwise — cannot pin
		// residency by hammering.
		if fresh {
			e.users.dropIfIdle(ref, e.window, e.epsWindow, e.cfg.EpsilonBudget)
		}
		return 0, 0, err
	}
	if e.epsWindow > 0 && e.cfg.Ledger != nil {
		// The ledger record must be durable before the submission is
		// acknowledged: a crash after the ack but before the append would
		// hand the user their epsilon back on recovery. A failed append
		// therefore rejects the submission and reverts the charge.
		// id is the registry's interned copy of the submitter's ID —
		// identical to user on the string path, and the only string form
		// that exists on the byte-key path.
		rec := ChargeRecord{User: id, Window: e.window, Epsilon: e.epsWindow}
		if e.cfg.ClaimWAL {
			// With the claim WAL the statistics ride the same durable
			// record as the charge: one fsync covers both, and recovery
			// can replay the submission instead of just its debit.
			rec.Claims = claims
		}
		if err := e.cfg.Ledger.AppendCharge(rec); err != nil {
			e.users.uncharge(ref, e.epsWindow, prevWindow)
			if fresh {
				e.users.dropIfIdle(ref, e.window, e.epsWindow, e.cfg.EpsilonBudget)
			}
			return 0, 0, fmt.Errorf("%w: user %q window %d: %v", ErrLedger, id, e.window+1, err)
		}
	}

	// Partition the batch by owning shard into pooled slices and hand
	// each piece off on the shard's channel (FIFO, so a later window
	// close drains it first). The shard worker recycles each slice after
	// folding it, and the claims are copied by value, so the caller's
	// slice is reusable the moment this returns.
	for _, c := range claims {
		idx := c.Object % len(e.shards)
		cb := sc.bufs[idx]
		if cb == nil {
			cb = claimBufPool.Get().(*claimBuf)
			sc.bufs[idx] = cb
		}
		cb.claims = append(cb.claims, c)
	}
	for i, cb := range sc.bufs {
		if cb == nil {
			continue
		}
		sc.bufs[i] = nil
		e.shards[i].in <- shardMsg{user: int(ref.slot), claims: cb.claims, buf: cb}
	}
	e.windowClaims.Add(int64(len(claims)))
	e.totalClaims.Add(int64(len(claims)))
	e.metrics.ingested(len(claims))
	e.metrics.observeCumEps(cumEps)
	return len(claims), e.window + 1, nil
}

// CloseWindow drains all pending ingestion, re-estimates truths and
// weights from the live sufficient statistics, applies the per-window
// decay, and advances the window counter. The returned result, without
// its Weights, is also retained for Snapshot.
func (e *Engine) CloseWindow() (*WindowResult, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	if e.window >= maxWindow {
		return nil, fmt.Errorf("%w: window counter at its limit %d", ErrBadState, maxWindow)
	}
	release := e.pauseShards()
	defer close(release)

	res, err := e.estimateLocked()
	if err != nil {
		return nil, err
	}
	if e.cfg.Decay < 1 {
		e.eachShardParallel(func(s *shard) { s.decay(e.cfg.Decay) })
	}
	e.window++
	res.Window = e.window
	res.WindowClaims = e.windowClaims.Swap(0)
	res.TotalClaims = e.totalClaims.Load()
	if e.epsWindow > 0 {
		res.Privacy = e.users.report(e.epsWindow, e.cfg.Delta, e.cfg.EpsilonBudget)
	}
	// Eviction runs after the report so the closing window describes the
	// same population an unbounded engine would, and before the result is
	// published so a persistence layer snapshotting right after this
	// close (crowd.StreamServer does) can never write a snapshot that
	// excludes a user whose spill is not durable yet.
	e.evictIdleLocked()

	e.pushResult(res)
	e.metrics.windowClosed(time.Since(start))
	return res, nil
}

// pushResult appends one published result, minus its weights, to the
// bounded history ring, evicting the oldest entry past capacity. Results
// arrive in ascending window order (CloseWindow serializes on e.mu).
func (e *Engine) pushResult(res *WindowResult) {
	kept := *res
	kept.Weights = nil
	e.histMu.Lock()
	defer e.histMu.Unlock()
	e.history = append(e.history, &kept)
	if n := len(e.history) - e.cfg.HistoryWindows; n > 0 {
		e.history = append(e.history[:0], e.history[n:]...)
	}
}

// Snapshot returns the most recently closed window's result, or nil if
// no window has closed yet. The result is shared; treat it as read-only.
func (e *Engine) Snapshot() *WindowResult {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	if len(e.history) == 0 {
		return nil
	}
	return e.history[len(e.history)-1]
}

// ResultAt returns the retained published result of the given 1-based
// closed window. It reports false when that window never closed or has
// been evicted from the bounded ring (Config.HistoryWindows). The result
// is shared; treat it as read-only.
func (e *Engine) ResultAt(window int) (*WindowResult, bool) {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	for i := len(e.history) - 1; i >= 0; i-- {
		switch {
		case e.history[i].Window == window:
			return e.history[i], true
		case e.history[i].Window < window:
			return nil, false
		}
	}
	return nil, false
}

// WeightsAt returns the per-user weights of closed window window, and
// false unless it is the latest: the engine holds each user's weight
// once — the carry, stamped with the window that estimated it — not a
// map per retained window. It covers resident users only.
func (e *Engine) WeightsAt(window int) (map[string]float64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if window == 0 || window != e.window {
		return nil, false
	}
	return e.users.weightsAt(window), true
}

// History returns the retained published results in ascending window
// order (at most Config.HistoryWindows of them). The slice is a copy;
// the results are shared and read-only.
func (e *Engine) History() []*WindowResult {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	out := make([]*WindowResult, len(e.history))
	copy(out, e.history)
	return out
}

// HistoryWindows returns the capacity of the retained result ring.
func (e *Engine) HistoryWindows() int { return e.cfg.HistoryWindows }

// RestoreHistory seeds the published-result ring with persisted
// WindowResults after a Restore, so Snapshot and ResultAt serve the
// pre-restart estimates immediately instead of nothing until the next
// window close. Results are not re-derived from engine state — they are
// whatever was last published, stored verbatim (internal/streamstore
// persists them at every window close). The input may be unsorted and
// overlap what the ring already holds; it is deduplicated by window,
// sorted, and trimmed to capacity.
func (e *Engine) RestoreHistory(results []*WindowResult) {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	byWindow := make(map[int]*WindowResult, len(e.history)+len(results))
	for _, r := range e.history {
		byWindow[r.Window] = r
	}
	for _, r := range results {
		if r != nil {
			byWindow[r.Window] = r
		}
	}
	merged := make([]*WindowResult, 0, len(byWindow))
	for _, r := range byWindow {
		merged = append(merged, r)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Window < merged[j].Window })
	if n := len(merged) - e.cfg.HistoryWindows; n > 0 {
		merged = merged[n:]
	}
	e.history = merged
}

// Window returns the number of closed windows so far.
func (e *Engine) Window() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.window
}

// TotalClaims returns the number of claims accepted over the stream's
// lifetime.
func (e *Engine) TotalClaims() int64 { return e.totalClaims.Load() }

// Close stops the shard workers. The engine rejects all calls afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()
	return nil
}

// pauseShards brings every shard to a quiescent point: all batches
// enqueued before the exclusive lock was taken are applied, then the
// workers block until the returned channel is closed. Callers must hold
// e.mu exclusively.
func (e *Engine) pauseShards() chan struct{} {
	release := make(chan struct{})
	acks := make([]chan struct{}, len(e.shards))
	for i, s := range e.shards {
		acks[i] = make(chan struct{})
		s.in <- shardMsg{ctl: &pauseReq{acquired: acks[i], release: release}}
	}
	for _, ack := range acks {
		<-ack
	}
	return release
}

// eachShardParallel runs fn once per shard on its own goroutine and
// waits. Callers must have the shards paused.
func (e *Engine) eachShardParallel(fn func(*shard)) {
	e.eachShardParallelIndexed(func(_ int, s *shard) { fn(s) })
}
