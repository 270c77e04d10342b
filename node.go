package pptd

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"pptd/internal/cluster"
	"pptd/internal/crowd"
	"pptd/internal/obs"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// ErrNodeConfig reports an invalid NewNode option set: a bad argument, a
// half-configured feature, or two options that contradict each other.
// Every configuration error wraps it, so errors.Is(err, ErrNodeConfig)
// catches them all.
var ErrNodeConfig = errors.New("pptd: invalid node configuration")

// Option configures NewNode. Options carry their own validation; cross-
// option consistency (conflicts, missing prerequisites) is checked once
// after all options applied, so the outcome does not depend on option
// order.
type Option func(*nodeConfig) error

// nodeConfig accumulates the option set before validation. The *Set
// flags distinguish "explicitly configured" from zero values, which is
// what lets validation reject half-configured feature combinations
// instead of silently defaulting them.
type nodeConfig struct {
	name string

	lambda2    float64
	lambda2Set bool

	targetEps   float64
	targetDelta float64
	targetSet   bool

	lambda1    float64
	lambda1Set bool

	budget    float64
	budgetSet bool
	perUser   bool

	batchObjects int
	batchSet     bool
	expected     int
	expectedSet  bool
	method       Method

	streamObjects  int
	streamSet      bool
	streamBase     *StreamConfig
	shards         int
	shardsSet      bool
	decay          float64
	decaySet       bool
	history        int
	historySet     bool
	windowInterval time.Duration
	intervalSet    bool
	distance       Distance
	distanceSet    bool
	tolerance      float64
	toleranceSet   bool
	maxIter        int
	maxIterSet     bool
	queueDepth     int
	queueSet       bool
	noCarryover    bool

	maxRequestBytes int64

	maxResident      int
	maxResidentSet   bool
	residentBytes    int64
	residentBytesSet bool

	stateDir    string
	persistSet  bool
	store       StreamStoreOptions
	claimWALOff bool

	clusterWorker   bool
	clusterWorkers  []string
	clusterSet      bool
	shipDest        string
	shipSet         bool
	shipInterval    time.Duration
	shipIntervalSet bool

	logger *slog.Logger
	debug  bool
}

func optErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNodeConfig, fmt.Sprintf(format, args...))
}

// WithName labels the node's campaigns.
func WithName(name string) Option {
	return func(c *nodeConfig) error {
		c.name = name
		return nil
	}
}

// WithBatchCampaign hosts the one-shot batch campaign (Algorithm 2's
// collect-then-aggregate flow) over numObjects micro-tasks. The
// truth-discovery method defaults to CRH (WithMethod overrides) and
// aggregation is manual unless WithExpectedUsers sets a trigger.
func WithBatchCampaign(numObjects int) Option {
	return func(c *nodeConfig) error {
		if numObjects <= 0 {
			return optErr("WithBatchCampaign: numObjects = %d", numObjects)
		}
		if c.batchSet {
			return optErr("WithBatchCampaign configured twice")
		}
		c.batchObjects = numObjects
		c.batchSet = true
		return nil
	}
}

// WithExpectedUsers auto-aggregates the batch campaign once n users have
// submitted. Requires WithBatchCampaign.
func WithExpectedUsers(n int) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithExpectedUsers: n = %d", n)
		}
		c.expected = n
		c.expectedSet = true
		return nil
	}
}

// WithMethod selects the truth-discovery method (default CRH). It
// applies to every campaign the node hosts: the batch campaign runs the
// method as given, and the streaming engine runs its incremental
// counterpart (so the streaming estimators are CRH, GTM, and CATD —
// configuring a stream engine with a batch-only method like the mean or
// median baseline fails validation). On a durable node the method is
// also cross-checked against the recovered snapshot: restoring state
// written by a different estimator fails with ErrStreamEstimatorMismatch
// instead of silently reinterpreting it. Requires WithBatchCampaign or a
// stream engine.
func WithMethod(m Method) Option {
	return func(c *nodeConfig) error {
		if m == nil {
			return optErr("WithMethod: nil method")
		}
		c.method = m
		return nil
	}
}

// WithStreamEngine hosts the streaming engine over numObjects objects:
// perturbed claims ingest continuously into sharded workers and every
// window close publishes an incremental estimate. Defaults: automatic
// shard count, no decay, no privacy accounting (see WithPrivacyTarget),
// DefaultStreamHistoryWindows retained results.
func WithStreamEngine(numObjects int) Option {
	return func(c *nodeConfig) error {
		if numObjects <= 0 {
			return optErr("WithStreamEngine: numObjects = %d", numObjects)
		}
		if c.streamSet {
			return optErr("WithStreamEngine configured twice")
		}
		if c.streamBase != nil {
			return optErr("WithStreamEngine conflicts with WithStreamConfig: the engine config already carries the object count")
		}
		c.streamObjects = numObjects
		c.streamSet = true
		return nil
	}
}

// WithStreamConfig hosts the streaming engine from a full StreamConfig —
// the advanced escape hatch for knobs without a dedicated option
// (explicit lambda1/lambda2/delta accounting, claim WAL, metrics
// registry). Fine-grained stream options that would contradict it
// (WithStreamEngine, and WithPrivacyTarget when the config enables its
// own accounting) are rejected at validation.
func WithStreamConfig(cfg StreamConfig) Option {
	return func(c *nodeConfig) error {
		if c.streamSet {
			return optErr("WithStreamConfig conflicts with WithStreamEngine: the engine config already carries the object count")
		}
		if c.streamBase != nil {
			return optErr("WithStreamConfig configured twice")
		}
		base := cfg
		c.streamBase = &base
		return nil
	}
}

// WithShards overrides the streaming engine's ingestion shard count
// (default: one per core, capped at 8). Requires a stream engine.
func WithShards(n int) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithShards: n = %d", n)
		}
		c.shards = n
		c.shardsSet = true
		return nil
	}
}

// WithDecay sets the streaming engine's per-window retention factor in
// (0, 1]: 1 keeps all history, smaller values forget old claims
// exponentially. Requires a stream engine.
func WithDecay(d float64) Option {
	return func(c *nodeConfig) error {
		if d <= 0 || d > 1 || math.IsNaN(d) {
			return optErr("WithDecay: d = %v (want (0, 1])", d)
		}
		c.decay = d
		c.decaySet = true
		return nil
	}
}

// WithWindowInterval closes streaming windows automatically on a ticker,
// so the deployment does not depend on an external POST
// /v1/stream/window driver. Requires a stream engine.
func WithWindowInterval(d time.Duration) Option {
	return func(c *nodeConfig) error {
		if d <= 0 {
			return optErr("WithWindowInterval: d = %v", d)
		}
		c.windowInterval = d
		c.intervalSet = true
		return nil
	}
}

// WithWindowHistory retains the last k published window results for
// GET /v1/stream/truths?window=N reads (default
// DefaultStreamHistoryWindows). On a durable node the same k recent
// results are persisted, so history reads survive a kill-and-recover.
// Requires a stream engine.
func WithWindowHistory(k int) Option {
	return func(c *nodeConfig) error {
		if k <= 0 {
			return optErr("WithWindowHistory: k = %d", k)
		}
		c.history = k
		c.historySet = true
		return nil
	}
}

// WithStreamDistance selects the claim-to-truth distance of the
// streaming CRH weight update (default NormalizedSquaredDistance,
// matching batch CRH). It parameterizes the CRH estimator only, so it
// conflicts with WithMethod selecting GTM or CATD. Requires a stream
// engine.
func WithStreamDistance(d Distance) Option {
	return func(c *nodeConfig) error {
		switch d {
		case SquaredDistance, AbsoluteDistance, NormalizedSquaredDistance:
		default:
			return optErr("WithStreamDistance: unknown distance %v", d)
		}
		c.distance = d
		c.distanceSet = true
		return nil
	}
}

// WithStreamTolerance sets the convergence tolerance of the streaming
// estimation loop: a window's iteration stops once no truth moved by
// more than tol (default truth.DefaultTolerance). Requires a stream
// engine.
func WithStreamTolerance(tol float64) Option {
	return func(c *nodeConfig) error {
		if tol <= 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
			return optErr("WithStreamTolerance: tol = %v", tol)
		}
		c.tolerance = tol
		c.toleranceSet = true
		return nil
	}
}

// WithStreamMaxIterations caps the streaming estimation loop's
// iterations per window close (default truth.DefaultMaxIterations).
// Requires a stream engine.
func WithStreamMaxIterations(n int) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithStreamMaxIterations: n = %d", n)
		}
		c.maxIter = n
		c.maxIterSet = true
		return nil
	}
}

// WithQueueDepth sets the per-shard ingestion channel buffer (default
// 64): deeper queues absorb burstier submission traffic before Ingest
// blocks, at the cost of memory. Requires a stream engine.
func WithQueueDepth(n int) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithQueueDepth: n = %d", n)
		}
		c.queueDepth = n
		c.queueSet = true
		return nil
	}
}

// WithMaxRequestBytes caps the request body of every POST route the
// node serves — stream claims, batch submissions, and (on cluster
// workers and coordinators) the cluster close/commit RPCs. An oversized
// body is refused with the 413 payload_too_large envelope before it is
// buffered, so one client cannot exhaust the node's memory with a
// single giant request. The default is 16 MiB (see the API docs);
// raise it for deployments whose legitimate batches are larger, or
// lower it to tighten the ingest surface.
func WithMaxRequestBytes(n int64) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithMaxRequestBytes: n = %d", n)
		}
		c.maxRequestBytes = n
		return nil
	}
}

// WithMaxResidentUsers caps how many distinct users the streaming
// engine holds in memory: at each window close, idle users past the cap
// are evicted LRU-first, their budget and estimator state spilled
// durably to the persistence store, and re-admitted transparently on
// their next claim. Published estimates are unchanged — only fully
// decayed (statistics-free) users are eligible — and privacy accounting
// never forgets a charge: an exhausted user stays rejected across
// eviction, re-admission, and restart. Requires a stream engine and
// WithPersistence (the spill store).
func WithMaxResidentUsers(n int) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithMaxResidentUsers: n = %d", n)
		}
		if c.maxResidentSet {
			return optErr("WithMaxResidentUsers configured twice")
		}
		c.maxResident = n
		c.maxResidentSet = true
		return nil
	}
}

// WithResidentBytes caps the streaming engine's estimated in-memory
// user footprint in bytes instead of (or in addition to) a head count;
// eviction behaves exactly as under WithMaxResidentUsers. Requires a
// stream engine and WithPersistence (the spill store).
func WithResidentBytes(n int64) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithResidentBytes: n = %d", n)
		}
		if c.residentBytesSet {
			return optErr("WithResidentBytes configured twice")
		}
		c.residentBytes = n
		c.residentBytesSet = true
		return nil
	}
}

// WithoutWeightCarryover makes every streaming window's estimation
// restart from uniform weights instead of warm-starting from the
// previous window's estimates (and, under GTM, resets the learned
// per-user variances each window). The published estimates are
// identical either way once converged; carryover only saves iterations.
// Requires a stream engine.
func WithoutWeightCarryover() Option {
	return func(c *nodeConfig) error {
		c.noCarryover = true
		return nil
	}
}

// WithLambda2 publishes an explicit perturbation rate lambda2 to users
// (the rate each device samples its private noise variance with). It
// does not by itself enable privacy accounting — use WithPrivacyTarget
// for that — and conflicts with it, since the target derives lambda2.
func WithLambda2(lambda2 float64) Option {
	return func(c *nodeConfig) error {
		if lambda2 <= 0 || math.IsNaN(lambda2) || math.IsInf(lambda2, 0) {
			return optErr("WithLambda2: lambda2 = %v", lambda2)
		}
		c.lambda2 = lambda2
		c.lambda2Set = true
		return nil
	}
}

// WithPrivacyTarget asks each streaming window (and the batch campaign's
// single release) to satisfy (eps, delta)-local differential privacy:
// the node derives the lambda2 to publish from the target via the
// paper's accountant (Theorem 4.8) and meters every streaming user's
// cumulative spending, both eps and delta composing linearly across
// their windows. Requires WithDataQuality (the accountant's assumed
// error-variance rate); conflicts with WithLambda2.
func WithPrivacyTarget(eps, delta float64) Option {
	return func(c *nodeConfig) error {
		if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
			return optErr("WithPrivacyTarget: eps = %v", eps)
		}
		if delta <= 0 || delta >= 1 || math.IsNaN(delta) {
			return optErr("WithPrivacyTarget: delta = %v (want (0, 1))", delta)
		}
		c.targetEps = eps
		c.targetDelta = delta
		c.targetSet = true
		return nil
	}
}

// WithDataQuality sets lambda1, the error-variance rate the privacy
// accountant assumes the crowd's sensors follow (the paper's data-
// quality parameter). Required by WithPrivacyTarget.
func WithDataQuality(lambda1 float64) Option {
	return func(c *nodeConfig) error {
		if lambda1 <= 0 || math.IsNaN(lambda1) || math.IsInf(lambda1, 0) {
			return optErr("WithDataQuality: lambda1 = %v", lambda1)
		}
		c.lambda1 = lambda1
		c.lambda1Set = true
		return nil
	}
}

// WithEpsilonBudget caps each streaming user's cumulative epsilon:
// submissions that would start a window past the cap are rejected
// (budget_exhausted on the wire). Requires privacy accounting
// (WithPrivacyTarget, or WithStreamConfig with Lambda1 set).
func WithEpsilonBudget(budget float64) Option {
	return func(c *nodeConfig) error {
		if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
			return optErr("WithEpsilonBudget: budget = %v", budget)
		}
		c.budget = budget
		c.budgetSet = true
		return nil
	}
}

// WithPerUserReport opts the full per-user cumulative-epsilon map into
// privacy reports (default: aggregates only — the map is the complete
// historical client-ID roster). Requires privacy accounting.
func WithPerUserReport() Option {
	return func(c *nodeConfig) error {
		c.perUser = true
		return nil
	}
}

// WithClusterWorker exposes the node's streaming engine as a cluster
// shard worker: the coordinator-facing close/commit RPCs are mounted
// next to the streaming API, so a ClusterCoordinator can route this
// node's share of users here and drive its window closes. Because the
// coordinator owns the close schedule, it conflicts with
// WithWindowInterval. Requires a stream engine.
func WithClusterWorker() Option {
	return func(c *nodeConfig) error {
		c.clusterWorker = true
		return nil
	}
}

// WithClusterCoordinator makes the node the ingest coordinator of a
// sharded cluster over the given worker base URLs: instead of hosting a
// local engine, the node routes each user's claims to the worker owning
// them on the hash ring and runs the merge-estimate close protocol, so
// GET /v1/stream/truths serves cluster-wide estimates identical to a
// single node's. The stream options (WithStreamEngine or
// WithStreamConfig, WithMethod, WithDecay, privacy options, ...)
// describe the engine configuration shared with the workers, which is
// cross-checked against each worker at startup; WithWindowInterval
// drives cluster-wide closes. The coordinator holds no durable state —
// durability lives on the workers — so it conflicts with
// WithPersistence, residency caps, segment shipping, WithClusterWorker,
// and WithBatchCampaign.
func WithClusterCoordinator(workers ...string) Option {
	return func(c *nodeConfig) error {
		if len(workers) == 0 {
			return optErr("WithClusterCoordinator: no workers")
		}
		if c.clusterSet {
			return optErr("WithClusterCoordinator configured twice")
		}
		c.clusterWorkers = append([]string(nil), workers...)
		c.clusterSet = true
		return nil
	}
}

// WithSegmentShipping replicates the node's durable state to dest in
// the background: sealed journal segments ship once, the active
// segment's durable prefix, snapshots, results, and the spill file
// follow on every pass. dest is a local archive directory, or — with an
// http:// or https:// scheme — the base URL of a ClusterFollower; a
// fresh node pointed at the replica recovers to the shipped state
// (warm standby, point-in-time restore, read replica). Requires
// WithPersistence.
func WithSegmentShipping(dest string) Option {
	return func(c *nodeConfig) error {
		if dest == "" {
			return optErr("WithSegmentShipping: empty destination")
		}
		if c.shipSet {
			return optErr("WithSegmentShipping configured twice")
		}
		c.shipDest = dest
		c.shipSet = true
		return nil
	}
}

// WithShippingInterval sets the segment-shipping cadence (default 5s).
// Requires WithSegmentShipping.
func WithShippingInterval(d time.Duration) Option {
	return func(c *nodeConfig) error {
		if d <= 0 {
			return optErr("WithShippingInterval: d = %v", d)
		}
		c.shipInterval = d
		c.shipIntervalSet = true
		return nil
	}
}

// WithLogger emits one structured log line per HTTP request through the
// given slog logger: request_id, method, route pattern, path, status,
// duration, bytes, and the error-envelope code on failures (5xx at
// error level, everything else at info). The request_id is the
// X-Request-ID the response echoed, so a client-reported failure joins
// against the log stream directly. Without this option the node logs
// nothing; request metrics are collected either way.
func WithLogger(l *slog.Logger) Option {
	return func(c *nodeConfig) error {
		if l == nil {
			return optErr("WithLogger: nil logger")
		}
		c.logger = l
		return nil
	}
}

// WithDebugHandlers mounts net/http/pprof's profiling endpoints under
// /debug/pprof/ on the node's mux. Opt-in: the profiles expose
// operational internals (goroutine stacks, heap contents) that do not
// belong on an unguarded public listener.
func WithDebugHandlers() Option {
	return func(c *nodeConfig) error {
		c.debug = true
		return nil
	}
}

// PersistenceOption tunes WithPersistence.
type PersistenceOption func(*nodeConfig) error

// WithPersistence makes the node's campaigns durable in the given state
// directory. On the streaming side, every privacy charge (and, by
// default, the submission's claims — see WithoutClaimWAL) is journaled
// with an fsync before the submission is acknowledged, each window
// close persists its published result (the retained history, so
// ?window= reads survive restarts), the engine is snapshotted per the
// configured cadence, and residency-cap evictions (WithMaxResidentUsers
// / WithResidentBytes) spill user state to the same store. On the batch
// side, every accepted submission is WAL'd before its receipt and the
// aggregated result persists before it is first published. The node
// owns the store: NewNode opens it and Node.Close closes it.
func WithPersistence(dir string, opts ...PersistenceOption) Option {
	return func(c *nodeConfig) error {
		if dir == "" {
			return optErr("WithPersistence: empty state directory")
		}
		if c.persistSet {
			return optErr("WithPersistence configured twice")
		}
		c.stateDir = dir
		c.persistSet = true
		for _, o := range opts {
			if o == nil {
				continue
			}
			if err := o(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// WithSnapshotEvery snapshots the engine on every nth window close
// (default every close); the journal covers the windows in between.
func WithSnapshotEvery(n int) PersistenceOption {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithSnapshotEvery: n = %d", n)
		}
		c.store.SnapshotEvery = n
		return nil
	}
}

// WithSnapshotBytes forces a snapshot once the journal outgrows the
// given size, bounding recovery replay time regardless of cadence.
func WithSnapshotBytes(n int64) PersistenceOption {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithSnapshotBytes: n = %d", n)
		}
		c.store.SnapshotBytes = n
		return nil
	}
}

// WithSegmentBytes caps each journal segment file at n bytes (default
// 4 MiB): appends roll to a fresh segment past the cap, and snapshots
// compact by deleting fully-covered sealed segments — O(segments),
// never a rewrite. Smaller segments reclaim disk sooner at the cost of
// more files.
func WithSegmentBytes(n int64) PersistenceOption {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithSegmentBytes: n = %d", n)
		}
		c.store.SegmentBytes = n
		return nil
	}
}

// WithRetainSnapshots keeps the previous n snapshot generations as
// manual-recovery artifacts (recovery never reads them).
func WithRetainSnapshots(n int) PersistenceOption {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithRetainSnapshots: n = %d", n)
		}
		c.store.RetainSnapshots = n
		return nil
	}
}

// WithGroupCommit tunes journal group commit: how long a batch leader
// lingers for more concurrent appends before fsyncing (0 = no added
// latency) and the records one batch may carry (0 = default 256, 1 =
// one fsync per append).
func WithGroupCommit(flushInterval time.Duration, maxBatch int) PersistenceOption {
	return func(c *nodeConfig) error {
		if flushInterval < 0 {
			return optErr("WithGroupCommit: flushInterval = %v", flushInterval)
		}
		if maxBatch < 0 {
			return optErr("WithGroupCommit: maxBatch = %d", maxBatch)
		}
		c.store.FlushInterval = flushInterval
		c.store.MaxBatch = maxBatch
		return nil
	}
}

// WithoutClaimWAL journals privacy charges only, not the submissions'
// claims. The budget still survives any crash, but statistics accepted
// after the last snapshot are lost with it (privacy-conservative: the
// charge stands, the data is gone). The default — claims in the WAL —
// makes a kill-and-recover node match an uninterrupted one.
func WithoutClaimWAL() PersistenceOption {
	return func(c *nodeConfig) error {
		c.claimWALOff = true
		return nil
	}
}

// validate checks cross-option consistency after every option applied.
// Half-configured or contradictory sets fail with a typed error (wrapped
// ErrNodeConfig) naming the options involved — never a silent default.
func (c *nodeConfig) validate() error {
	streaming := c.streamSet || c.streamBase != nil
	if !c.batchSet && !streaming {
		return optErr("configure at least one of WithBatchCampaign and WithStreamEngine")
	}
	if c.expectedSet && !c.batchSet {
		return optErr("WithExpectedUsers requires WithBatchCampaign")
	}
	if c.method != nil && streaming && !stream.KnownEstimator(c.method.Name()) {
		return optErr("WithMethod: %q is batch-only; streaming estimators are %v",
			c.method.Name(), stream.EstimatorNames)
	}
	if c.distanceSet && c.method != nil && c.method.Name() != stream.EstimatorCRH {
		return optErr("WithStreamDistance parameterizes the CRH estimator, but WithMethod selected %q", c.method.Name())
	}
	for opt, set := range map[string]bool{
		"WithShards":              c.shardsSet,
		"WithDecay":               c.decaySet,
		"WithWindowInterval":      c.intervalSet,
		"WithWindowHistory":       c.historySet,
		"WithEpsilonBudget":       c.budgetSet,
		"WithPerUserReport":       c.perUser,
		"WithStreamDistance":      c.distanceSet,
		"WithStreamTolerance":     c.toleranceSet,
		"WithStreamMaxIterations": c.maxIterSet,
		"WithQueueDepth":          c.queueSet,
		"WithoutWeightCarryover":  c.noCarryover,
		"WithMaxResidentUsers":    c.maxResidentSet,
		"WithResidentBytes":       c.residentBytesSet,
	} {
		if set && !streaming {
			return optErr("%s requires a stream engine (WithStreamEngine or WithStreamConfig)", opt)
		}
	}
	// WithPersistence serves either campaign (the batch WAL needs no
	// stream engine), but never neither — validated above.
	if (c.maxResidentSet || c.residentBytesSet) && !c.persistSet &&
		(c.streamBase == nil || c.streamBase.UserStore == nil) {
		return optErr("residency caps (WithMaxResidentUsers / WithResidentBytes) require WithPersistence: evicted users spill to the store")
	}
	if c.clusterWorker && !streaming {
		return optErr("WithClusterWorker requires a stream engine (WithStreamEngine or WithStreamConfig)")
	}
	if c.clusterWorker && c.intervalSet {
		return optErr("WithClusterWorker conflicts with WithWindowInterval: the coordinator drives window closes")
	}
	if c.clusterSet {
		if !streaming {
			return optErr("WithClusterCoordinator requires a stream engine config (WithStreamEngine or WithStreamConfig)")
		}
		for opt, set := range map[string]bool{
			"WithClusterWorker":    c.clusterWorker,
			"WithPersistence":      c.persistSet,
			"WithSegmentShipping":  c.shipSet,
			"WithBatchCampaign":    c.batchSet,
			"WithMaxResidentUsers": c.maxResidentSet,
			"WithResidentBytes":    c.residentBytesSet,
		} {
			if set {
				return optErr("WithClusterCoordinator conflicts with %s: the coordinator holds no engine or durable state of its own", opt)
			}
		}
	}
	if c.shipSet && !c.persistSet {
		return optErr("WithSegmentShipping requires WithPersistence: shipping replicates the state directory")
	}
	if c.shipIntervalSet && !c.shipSet {
		return optErr("WithShippingInterval requires WithSegmentShipping")
	}
	if c.lambda2Set && c.targetSet {
		return optErr("WithLambda2 conflicts with WithPrivacyTarget: the target derives lambda2")
	}
	if c.targetSet && !c.lambda1Set {
		return optErr("WithPrivacyTarget requires WithDataQuality (the accountant's error-variance rate)")
	}
	if c.lambda1Set && !c.targetSet {
		return optErr("WithDataQuality requires WithPrivacyTarget (nothing to account without a target)")
	}
	if c.streamBase != nil {
		if c.targetSet && c.streamBase.Lambda1 > 0 {
			return optErr("WithPrivacyTarget conflicts with WithStreamConfig accounting (Lambda1 set)")
		}
		if c.lambda2Set && c.streamBase.Lambda2 > 0 {
			return optErr("WithLambda2 conflicts with WithStreamConfig.Lambda2")
		}
		if c.historySet && c.streamBase.HistoryWindows != 0 {
			return optErr("WithWindowHistory conflicts with WithStreamConfig.HistoryWindows")
		}
		if c.shardsSet && c.streamBase.NumShards != 0 {
			return optErr("WithShards conflicts with WithStreamConfig.NumShards")
		}
		if c.decaySet && c.streamBase.Decay != 0 {
			return optErr("WithDecay conflicts with WithStreamConfig.Decay")
		}
		if c.method != nil && c.streamBase.Estimator != "" {
			return optErr("WithMethod conflicts with WithStreamConfig.Estimator")
		}
		if c.distanceSet {
			if c.streamBase.Distance != 0 {
				return optErr("WithStreamDistance conflicts with WithStreamConfig.Distance")
			}
			if est := c.streamBase.Estimator; est != "" && est != stream.EstimatorCRH {
				return optErr("WithStreamDistance parameterizes the CRH estimator, but WithStreamConfig.Estimator is %q", est)
			}
		}
		if c.toleranceSet && c.streamBase.Tolerance != 0 {
			return optErr("WithStreamTolerance conflicts with WithStreamConfig.Tolerance")
		}
		if c.maxIterSet && c.streamBase.MaxIterations != 0 {
			return optErr("WithStreamMaxIterations conflicts with WithStreamConfig.MaxIterations")
		}
		if c.queueSet && c.streamBase.QueueDepth != 0 {
			return optErr("WithQueueDepth conflicts with WithStreamConfig.QueueDepth")
		}
		if c.noCarryover && c.streamBase.DisableCarryover {
			return optErr("WithoutWeightCarryover conflicts with WithStreamConfig.DisableCarryover")
		}
		if c.budgetSet && c.streamBase.EpsilonBudget != 0 {
			return optErr("WithEpsilonBudget conflicts with WithStreamConfig.EpsilonBudget")
		}
		if c.perUser && c.streamBase.PerUserReport {
			return optErr("WithPerUserReport conflicts with WithStreamConfig.PerUserReport")
		}
		if c.maxResidentSet && c.streamBase.MaxResidentUsers != 0 {
			return optErr("WithMaxResidentUsers conflicts with WithStreamConfig.MaxResidentUsers")
		}
		if c.residentBytesSet && c.streamBase.ResidentBytes != 0 {
			return optErr("WithResidentBytes conflicts with WithStreamConfig.ResidentBytes")
		}
		// An explicit ClaimWAL in the escape hatch must stay loud, never
		// silently defaulted away: it conflicts with WithoutClaimWAL, it
		// is meaningless without accounting (claims ride the charge
		// journal), and it needs a durable journal to ride.
		if c.streamBase.ClaimWAL {
			if c.claimWALOff {
				return optErr("WithoutClaimWAL conflicts with WithStreamConfig.ClaimWAL")
			}
			if c.streamBase.Lambda1 <= 0 {
				return optErr("WithStreamConfig.ClaimWAL requires accounting (Lambda1 > 0): claims ride the charge journal")
			}
			if !c.persistSet && c.streamBase.Ledger == nil {
				return optErr("WithStreamConfig.ClaimWAL requires WithPersistence (or an explicit Ledger) to journal into")
			}
		}
	}
	accounting := c.targetSet || (c.streamBase != nil && c.streamBase.Lambda1 > 0)
	if c.budgetSet && !accounting {
		return optErr("WithEpsilonBudget requires privacy accounting (WithPrivacyTarget or WithStreamConfig.Lambda1)")
	}
	if c.perUser && !accounting {
		return optErr("WithPerUserReport requires privacy accounting (WithPrivacyTarget or WithStreamConfig.Lambda1)")
	}
	if c.batchSet && !c.lambda2Set && !c.targetSet && (c.streamBase == nil || c.streamBase.Lambda2 <= 0) {
		return optErr("WithBatchCampaign requires a perturbation rate (WithLambda2 or WithPrivacyTarget)")
	}
	return nil
}

// Node is the unified front door to a privacy-preserving truth-discovery
// deployment: one process that can host the one-shot batch campaign, the
// windowed streaming engine, and durable persistence — all mounted on a
// single HTTP mux speaking one error-envelope contract. Build it with
// NewNode and functional options; Close releases everything the node
// owns (stream workers, window ticker, state store).
type Node struct {
	name    string
	batch   *CampaignServer
	stream  *StreamCampaignServer
	store   *StreamStore
	coord   *cluster.Coordinator
	shipper *cluster.Shipper
	metrics *obs.Registry

	handler http.Handler
}

// NewNode builds a node from functional options. At least one of
// WithBatchCampaign and WithStreamEngine (or WithStreamConfig) must be
// given; every option carries its defaults, and half-configured or
// conflicting option sets fail with an error wrapping ErrNodeConfig
// before anything is started. The returned node owns its resources —
// including the WithPersistence store — and must be Closed.
func NewNode(opts ...Option) (*Node, error) {
	var cfg nodeConfig
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	// Resolve the perturbation rate: explicit, derived from the privacy
	// target via the accountant, or carried by the escape-hatch config.
	lambda2 := cfg.lambda2
	if cfg.targetSet {
		acct, err := NewAccountant(cfg.lambda1)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrNodeConfig, err)
		}
		mech, err := acct.MechanismForEpsilon(cfg.targetEps, cfg.targetDelta)
		if err != nil {
			return nil, fmt.Errorf("%w: WithPrivacyTarget(%v, %v): %w",
				ErrNodeConfig, cfg.targetEps, cfg.targetDelta, err)
		}
		lambda2 = mech.Lambda2()
	}
	if lambda2 == 0 && cfg.streamBase != nil {
		lambda2 = cfg.streamBase.Lambda2
	}

	// Every node carries a metrics registry: the engine, the store, and
	// the HTTP middleware all publish into it, and GET /metrics serves
	// the text exposition. Registration is cheap enough that there is no
	// opt-out — the scrape endpoint simply goes unscraped.
	n := &Node{name: cfg.name, metrics: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			_ = n.Close()
		}
	}()

	if cfg.streamSet || cfg.streamBase != nil {
		engineCfg := StreamConfig{}
		if cfg.streamBase != nil {
			engineCfg = *cfg.streamBase
		} else {
			engineCfg.NumObjects = cfg.streamObjects
		}
		if cfg.shardsSet {
			engineCfg.NumShards = cfg.shards
		}
		if cfg.decaySet {
			engineCfg.Decay = cfg.decay
		}
		if cfg.historySet {
			engineCfg.HistoryWindows = cfg.history
		}
		if cfg.method != nil {
			engineCfg.Estimator = cfg.method.Name()
		}
		if cfg.distanceSet {
			engineCfg.Distance = cfg.distance
		}
		if cfg.toleranceSet {
			engineCfg.Tolerance = cfg.tolerance
		}
		if cfg.maxIterSet {
			engineCfg.MaxIterations = cfg.maxIter
		}
		if cfg.queueSet {
			engineCfg.QueueDepth = cfg.queueDepth
		}
		if cfg.noCarryover {
			engineCfg.DisableCarryover = true
		}
		if cfg.targetSet {
			engineCfg.Lambda1 = cfg.lambda1
			engineCfg.Delta = cfg.targetDelta
		}
		if lambda2 > 0 {
			engineCfg.Lambda2 = lambda2
		}
		if cfg.budgetSet {
			engineCfg.EpsilonBudget = cfg.budget
		}
		if cfg.perUser {
			engineCfg.PerUserReport = true
		}
		if cfg.maxResidentSet {
			engineCfg.MaxResidentUsers = cfg.maxResident
		}
		if cfg.residentBytesSet {
			engineCfg.ResidentBytes = cfg.residentBytes
		}
		if engineCfg.Metrics == nil {
			engineCfg.Metrics = n.metrics
		}
		if cfg.clusterSet {
			// Coordinator mode: the stream options describe the cluster's
			// shared engine configuration; no local engine runs here.
			coord, err := cluster.NewCoordinator(cluster.Config{
				Name:            cfg.name,
				Engine:          engineCfg,
				Workers:         cfg.clusterWorkers,
				WindowInterval:  cfg.windowInterval,
				MaxRequestBytes: cfg.maxRequestBytes,
				Metrics:         n.metrics,
			})
			if err != nil {
				return nil, err
			}
			n.coord = coord
		}
		if !cfg.clusterSet && cfg.persistSet {
			// Persist as many recent results as the engine retains, so
			// ?window= reads answer the same span across a restart.
			history := engineCfg.HistoryWindows
			if history == 0 {
				history = DefaultStreamHistoryWindows
			}
			cfg.store.ResultHistory = history
			cfg.store.Metrics = n.metrics
			store, err := streamstore.OpenWith(cfg.stateDir, cfg.store)
			if err != nil {
				return nil, err
			}
			n.store = store
			// Default the claim WAL on for accounted durable nodes; an
			// explicit WithStreamConfig.ClaimWAL passed validation above
			// and is preserved either way.
			if !cfg.claimWALOff && engineCfg.Lambda1 > 0 {
				engineCfg.ClaimWAL = true
			}
		}
		if !cfg.clusterSet {
			srv, err := crowd.NewStreamServer(crowd.StreamServerConfig{
				Name:            cfg.name,
				Engine:          engineCfg,
				Persistence:     n.store,
				WindowInterval:  cfg.windowInterval,
				MaxRequestBytes: cfg.maxRequestBytes,
			})
			if err != nil {
				return nil, err
			}
			n.stream = srv
		}
	}

	// A batch-only durable node still gets the store: the streaming
	// branch above opens it when both campaigns (or just streaming) are
	// configured, so this only fires when WithPersistence rides alone
	// with WithBatchCampaign.
	if cfg.persistSet && n.store == nil {
		cfg.store.Metrics = n.metrics
		store, err := streamstore.OpenWith(cfg.stateDir, cfg.store)
		if err != nil {
			return nil, err
		}
		n.store = store
	}

	if cfg.shipSet {
		var sink cluster.Sink
		var err error
		if strings.HasPrefix(cfg.shipDest, "http://") || strings.HasPrefix(cfg.shipDest, "https://") {
			sink, err = cluster.NewHTTPSink(cfg.shipDest, nil)
		} else {
			sink, err = cluster.NewDirSink(cfg.shipDest)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: WithSegmentShipping(%q): %w", ErrNodeConfig, cfg.shipDest, err)
		}
		interval := cfg.shipInterval
		if interval <= 0 {
			interval = 5 * time.Second
		}
		shipper, err := cluster.NewShipper(n.store, sink, interval, n.metrics)
		if err != nil {
			return nil, err
		}
		n.shipper = shipper
		shipper.Start()
	}

	if cfg.batchSet {
		method := cfg.method
		if method == nil {
			m, err := NewCRH()
			if err != nil {
				return nil, err
			}
			method = m
		}
		srv, err := crowd.NewServer(crowd.ServerConfig{
			Name:            cfg.name,
			NumObjects:      cfg.batchObjects,
			Lambda2:         lambda2,
			ExpectedUsers:   cfg.expected,
			Method:          method,
			Persistence:     n.store,
			MaxRequestBytes: cfg.maxRequestBytes,
		})
		if err != nil {
			return nil, err
		}
		n.batch = srv
	}

	mux := http.NewServeMux()
	if n.batch != nil {
		n.batch.Register(mux)
	}
	// One front door whatever sits behind it: the local stream server or
	// the cluster coordinator (validate rules out both at once).
	if n.stream != nil {
		crowd.RegisterStream(mux, n.stream, cfg.maxRequestBytes)
		if cfg.clusterWorker {
			n.stream.RegisterCluster(mux)
		}
	} else if n.coord != nil {
		crowd.RegisterStream(mux, n.coord, cfg.maxRequestBytes)
	}
	mux.Handle(crowd.PathMetrics, crowd.GetOnly(n.metrics.Handler()))
	if cfg.debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// The telemetry middleware wraps the whole front door — every route,
	// the not-found envelope, /metrics itself — labeling each request
	// with its mux pattern so metric cardinality stays bounded no matter
	// what paths are probed.
	n.handler = obs.Middleware(obs.MiddlewareConfig{
		Registry: n.metrics,
		Logger:   cfg.logger,
		Route: func(r *http.Request) string {
			if _, pattern := mux.Handler(r); pattern != "" {
				return pattern
			}
			return "unmatched"
		},
	})(withEnvelopeNotFound(mux))
	ok = true
	return n, nil
}

// withEnvelopeNotFound keeps the front door's contract total: paths no
// route is mounted at get the JSON error envelope (code "not_found"),
// not net/http's plain-text 404.
func withEnvelopeNotFound(mux *http.ServeMux) http.Handler {
	notFound := crowd.NotFoundHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, pattern := mux.Handler(r)
		if pattern == "" {
			notFound.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// Name returns the label the node's campaigns carry.
func (n *Node) Name() string { return n.name }

// Handler returns the node's HTTP handler: every configured API — batch
// campaign, streaming campaign, stats — on one mux, plus the Prometheus
// exposition at GET /metrics (and, with WithDebugHandlers, pprof under
// /debug/pprof/). Every non-2xx JSON response carries the versioned
// error envelope, every response echoes an X-Request-ID, and every
// request is counted and timed in the node's metrics registry.
func (n *Node) Handler() http.Handler { return n.handler }

// Batch returns the hosted batch campaign server, or nil when
// WithBatchCampaign was not configured.
func (n *Node) Batch() *CampaignServer { return n.batch }

// Stream returns the hosted streaming campaign server, or nil when no
// stream engine was configured.
func (n *Node) Stream() *StreamCampaignServer { return n.stream }

// Metrics returns the node's metrics registry — the one behind
// GET /metrics. Embedding applications may register their own
// instruments on it; they appear in the same exposition.
func (n *Node) Metrics() *MetricsRegistry { return n.metrics }

// Store returns the node-owned durable state store, or nil without
// WithPersistence. The node closes it in Close; callers may read Stats
// from it but must not Close it themselves.
func (n *Node) Store() *StreamStore { return n.store }

// Coordinator returns the hosted cluster coordinator, or nil without
// WithClusterCoordinator.
func (n *Node) Coordinator() *ClusterCoordinator { return n.coord }

// Shipper returns the node's segment shipper, or nil without
// WithSegmentShipping.
func (n *Node) Shipper() *SegmentShipper { return n.shipper }

// Close releases everything the node owns, in dependency order: the
// streaming server first (stopping the window ticker and shard workers,
// and writing a final snapshot on a durable node), then the state store.
func (n *Node) Close() error {
	var errs []error
	if n.coord != nil {
		if err := n.coord.Close(); err != nil {
			errs = append(errs, err)
		}
		n.coord = nil
	}
	if n.shipper != nil {
		// Stop the shipping loop with a final pass now, before the
		// streaming server writes its closing snapshot...
		if err := n.shipper.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if n.stream != nil {
		if err := n.stream.Close(); err != nil && !errors.Is(err, stream.ErrEngineClosed) {
			errs = append(errs, err)
		}
		n.stream = nil
	}
	if n.shipper != nil {
		// ...and ship once more after it, so the replica holds the final
		// snapshot too.
		if err := n.shipper.SyncOnce(); err != nil {
			errs = append(errs, err)
		}
		n.shipper = nil
	}
	if n.store != nil {
		if err := n.store.Close(); err != nil && !errors.Is(err, streamstore.ErrClosed) {
			errs = append(errs, err)
		}
		n.store = nil
	}
	return errors.Join(errs...)
}
