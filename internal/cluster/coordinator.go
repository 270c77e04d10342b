// Package cluster scales one streaming truth-discovery campaign across
// multiple nodes without changing what it publishes: a Coordinator
// shards users over N workers by consistent hashing (each user's
// privacy ledger lives entirely on its owning worker), drives
// synchronized window closes, and merges the workers' raw sufficient
// statistics so the cluster publishes exactly the estimate a single
// node would have produced over the same claims.
//
// The close protocol has three steps, each idempotent so a partially
// failed close converges under retry instead of publishing a partially
// merged result:
//
//  1. Close-export. The coordinator asks every worker to close window W
//     (POST /v1/cluster/close). Workers quiesce ingest and export their
//     raw pre-close statistics WITHOUT estimating, replying with the
//     binary engine-state encoding, which the coordinator decodes
//     (bounded, fuzzed) and checks is the state before W. The first
//     round probes with force=false, and if every worker answers 204 —
//     empty — the close fails with ErrEmptyWindow exactly like a single
//     node: nothing advances anywhere. Otherwise a second round forces
//     the empty minority closed (their users still decay, as they would
//     on one node). A worker retried after a partial close resends its
//     first export byte for byte: held in memory until it commits, and
//     on a durable worker read back from its cluster-close record after.
//  2. Merge-estimate. The per-worker exports cover disjoint user sets,
//     so stream.MergeStates unions them losslessly; the coordinator
//     loads the union into an ephemeral engine and runs the one true
//     estimation over it. Identical statistics in, identical estimate
//     out — this is why the cluster-vs-single-node equivalence holds to
//     within floating-point noise rather than approximately.
//  3. Commit. The merged post-estimate carry weights and estimator
//     state are written back to each user's owning worker
//     (POST /v1/cluster/commit), where the deferred idle-user eviction
//     finally runs. Only after every worker committed does the
//     coordinator advance its window and publish the result; any
//     failure withholds the result and leaves the whole round
//     retryable.
//
// The idempotence is durable on persistent workers: each worker writes
// its per-window export to disk before the post-close snapshot and
// marks it committed only after the merged carries are snapshotted, so
// the round converges under retry even across worker crashes at any
// point. A coordinator that boots against workers whose records say
// "closed but never committed" (GET /v1/cluster/status) re-drives the
// merge/commit from the workers' exports before serving — the carries of
// that window are applied exactly once-or-again, never skipped.
//
// Ingest never crosses shards: POST /v1/stream/claims is forwarded to
// the user's owning worker as a binary claim frame, whichever wire it
// arrived on, and the worker's local (epsilon, delta) ledger decides
// duplicate-window and budget-exhaustion exactly as a single node
// would. A worker that cannot be reached fails the claim with the typed
// worker_unavailable envelope naming the worker; nothing was ingested,
// so the client can simply retry.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pptd/internal/crowd"
	"pptd/internal/obs"
	"pptd/internal/stream"
)

// ErrBadConfig reports an invalid coordinator configuration.
var ErrBadConfig = errors.New("cluster: invalid config")

// closeRPCRetries is how many times each per-worker close/commit RPC is
// retried within one CloseWindow call before the round is abandoned. The
// protocol is idempotent, so an abandoned round is simply re-run by the
// next tick.
const closeRPCRetries = 2

// Config parameterizes a Coordinator.
type Config struct {
	// Name labels the campaign (served on /v1/stream/campaign).
	Name string
	// Engine is the stream configuration shared by every worker; the
	// coordinator uses it to build the ephemeral merge engine, so
	// estimator, decay, carry, and privacy parameters must match the
	// workers'. Persistence fields (Ledger, UserStore, residency caps,
	// ClaimWAL, Metrics) are ignored — durability lives on the workers.
	Engine stream.Config
	// Workers lists the worker base URLs (e.g. "http://10.0.0.2:8080").
	// The set defines the hash ring: the same set, in any order, routes
	// every user identically.
	Workers []string
	// WindowInterval, when positive, drives cluster-wide window closes
	// on a ticker, like StreamServerConfig.WindowInterval on one node.
	WindowInterval time.Duration
	// HTTPClient overrides the HTTP client used for worker RPCs.
	HTTPClient *http.Client
	// MaxRequestBytes caps the POST /v1/stream/claims request body on
	// the coordinator's front door (matching the workers' own caps);
	// oversized bodies get the 413 payload_too_large envelope. Zero
	// means crowd.DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// Metrics, when set, registers the coordinator's routing and close
	// counters.
	Metrics *obs.Registry
}

// Coordinator fronts a sharded cluster: it serves the standard
// streaming wire API (campaign, claims, truths, window) while
// routing ingest to workers and running the merge-estimate close
// protocol. Safe for concurrent use.
type Coordinator struct {
	name      string
	engCfg    stream.Config
	estimator string
	epsWindow float64
	ring      *Ring
	clients   map[string]*crowd.Client
	maxBytes  int64 // front-door request-body cap (0 = crowd's default)

	// windowMu serializes cluster window closes (manual and ticker).
	windowMu sync.Mutex
	window   atomic.Int64 // closed windows, mutated only under windowMu

	totalClaims atomic.Int64

	// history entries hold no per-user weights; weights is the latest's.
	histMu  sync.RWMutex
	history []crowd.StreamWindowInfo
	weights map[string]float64
	histCap int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	tickMu  sync.Mutex
	tickErr error

	routedClaims *obs.CounterVec
	routeErrors  *obs.CounterVec
	windowCloses *obs.Counter
	closeRetries *obs.Counter
}

// NewCoordinator validates the configuration, contacts every worker
// (all must be reachable and agree on the window count — a cluster must
// not boot torn), and returns a serving coordinator. Close it to stop
// the window ticker.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("%w: no workers", ErrBadConfig)
	}
	if cfg.WindowInterval < 0 {
		return nil, fmt.Errorf("%w: WindowInterval = %v", ErrBadConfig, cfg.WindowInterval)
	}
	if cfg.MaxRequestBytes < 0 {
		return nil, fmt.Errorf("%w: MaxRequestBytes = %d", ErrBadConfig, cfg.MaxRequestBytes)
	}
	// Validate the engine configuration the same way a worker would, by
	// building (and immediately closing) a merge engine from it.
	probe, err := stream.New(mergeConfig(cfg.Engine))
	if err != nil {
		return nil, fmt.Errorf("cluster: engine config: %w", err)
	}
	estimator := probe.Estimator()
	if estimator == "" {
		estimator = stream.EstimatorCRH
	}
	epsWindow := probe.EpsilonPerWindow()
	histCap := probe.HistoryWindows()
	_ = probe.Close()

	ring, err := NewRing(cfg.Workers)
	if err != nil {
		return nil, err
	}
	httpc := cfg.HTTPClient
	clients := make(map[string]*crowd.Client, len(ring.Workers()))
	for _, w := range ring.Workers() {
		// Routed claims travel as the binary claim frame.
		opts := []crowd.ClientOption{crowd.WithClaimWire(crowd.WireBinary)}
		if httpc != nil {
			opts = append(opts, crowd.WithHTTPClient(httpc))
		}
		cl, err := crowd.NewClient(w, opts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", w, err)
		}
		clients[w] = cl
	}
	c := &Coordinator{
		name:      cfg.Name,
		engCfg:    cfg.Engine,
		estimator: estimator,
		epsWindow: epsWindow,
		ring:      ring,
		clients:   clients,
		maxBytes:  cfg.MaxRequestBytes,
		histCap:   histCap,
	}
	if cfg.Metrics != nil {
		c.routedClaims = cfg.Metrics.CounterVec("pptd_cluster_routed_claims_total",
			"Claim submissions routed to each worker.", "worker")
		// Every worker's series exists from boot, so one the ring never
		// routes to reads 0 rather than missing.
		for _, w := range ring.Workers() {
			c.routedClaims.With(w)
		}
		c.routeErrors = cfg.Metrics.CounterVec("pptd_cluster_route_errors_total",
			"Claim submissions that failed because the owning worker was unreachable.", "worker")
		c.windowCloses = cfg.Metrics.Counter("pptd_cluster_window_closes_total",
			"Cluster-wide window closes completed (merged and committed).")
		c.closeRetries = cfg.Metrics.Counter("pptd_cluster_close_retries_total",
			"Per-worker close/commit RPC retries during cluster window closes.")
	}
	if err := c.bootSync(); err != nil {
		return nil, err
	}
	if cfg.WindowInterval > 0 {
		c.stop = make(chan struct{})
		c.wg.Add(1)
		go c.autoCloseLoop(cfg.WindowInterval)
	}
	return c, nil
}

// bootSync contacts every worker and adopts the cluster's window count.
// All workers must be reachable and agree on their effective position —
// recovering a truly torn cluster (workers whose positions diverge) is
// a deliberate non-goal of this iteration; the close protocol never
// creates one because a partial close parks the lagging workers behind
// their durable close exports, not behind a divergent window.
//
// A worker's effective position is the greater of its engine's window
// count and its last close export's window: a worker killed between
// its durable export and the post-close snapshot recovers one window
// behind the export it can still serve, and the retried close repairs
// the advance. When any worker reports a pending export that was never
// committed, the previous coordinator died mid-round — the merged
// result was never applied — so bootSync re-drives the merge/commit
// from the workers' exports before the coordinator serves anything;
// skipping this would leave every later window estimating from stale
// carries while still passing the agreement check. The boot's calls,
// re-drive included, share one request ID of their own.
func (c *Coordinator) bootSync() error {
	ctx := obs.WithRequestID(context.Background(), obs.NewRequestID())
	type boot struct {
		worker string
		info   crowd.StreamCampaignInfo
		status crowd.ClusterStatusReply
		err    error
	}
	workers := c.ring.Workers()
	boots := make([]boot, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			info, err := c.clients[w].StreamCampaign(ctx)
			var status crowd.ClusterStatusReply
			if err == nil {
				status, err = c.clients[w].ClusterStatus(ctx)
			}
			boots[i] = boot{worker: w, info: info, status: status, err: err}
		}(i, w)
	}
	wg.Wait()
	window := -1
	uncommitted := false
	var total int64
	for _, b := range boots {
		if b.err != nil {
			return fmt.Errorf("%w: %s at boot: %v", crowd.ErrWorkerUnavailable, b.worker, b.err)
		}
		if b.info.NumObjects != c.engCfg.NumObjects {
			return fmt.Errorf("%w: worker %s serves %d objects, coordinator configured for %d",
				ErrBadConfig, b.worker, b.info.NumObjects, c.engCfg.NumObjects)
		}
		est := b.info.Estimator
		if est == "" {
			est = stream.EstimatorCRH
		}
		if est != c.estimator {
			return fmt.Errorf("%w: worker %s runs estimator %q, coordinator configured for %q",
				ErrBadConfig, b.worker, est, c.estimator)
		}
		eff := b.status.Window
		if b.status.PendingWindow > eff {
			eff = b.status.PendingWindow
		}
		if window == -1 {
			window = eff
		} else if eff != window {
			return fmt.Errorf("%w: workers disagree on window count (%s at %d, %s at %d) — torn cluster",
				ErrBadConfig, boots[0].worker, window, b.worker, eff)
		}
		if b.status.PendingWindow > b.status.CommittedWindow {
			uncommitted = true
		}
		total += b.info.TotalClaims
	}
	c.window.Store(int64(window))
	c.totalClaims.Store(total)
	if uncommitted && window > 0 {
		err := c.redriveClose(ctx, window)
		logRound(ctx, "re-drive", window, err)
		return err
	}
	return nil
}

// redriveClose finishes a close round a previous coordinator left
// mid-flight: every worker already closed the window (durably recording
// its export), but the merged carries were never committed everywhere
// and the result was never published. It re-collects the exports
// with a retried close — repairing any worker whose engine recovered
// un-advanced — and re-runs the merge/estimate/commit; workers that did
// commit the first time re-apply identical values (the commit is
// idempotent).
func (c *Coordinator) redriveClose(ctx context.Context, window int) error {
	c.windowMu.Lock()
	defer c.windowMu.Unlock()
	workers := c.ring.Workers()
	states := make([]*stream.EngineState, len(workers))
	if err := c.fanOut(workers, func(i int, w string) error {
		st, err := c.closeWorker(ctx, w, window, true)
		states[i] = st
		return err
	}); err != nil {
		return fmt.Errorf("cluster: re-drive close of window %d: %w", window, err)
	}
	if _, err := c.mergeAndCommitLocked(ctx, window, states); err != nil {
		return fmt.Errorf("cluster: re-drive close of window %d: %w", window, err)
	}
	return nil
}

// mergeConfig strips the per-node concerns from the shared engine
// configuration: the merge engine is ephemeral and in-memory, exists
// only for the duration of one estimation, and must never journal,
// spill, or report metrics of its own.
func mergeConfig(cfg stream.Config) stream.Config {
	cfg.Ledger = nil
	cfg.UserStore = nil
	cfg.Metrics = nil
	cfg.ClaimWAL = false
	cfg.MaxResidentUsers = 0
	return cfg
}

// autoCloseLoop closes windows on the configured interval until Close.
func (c *Coordinator) autoCloseLoop(interval time.Duration) {
	defer c.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			// An empty window means no traffic this tick — and the probe
			// round reached every worker to establish that, so it clears
			// any retained fault just like a successful close does.
			// Anything else — above all an unreachable worker, which
			// withholds the round's result — is retained for TickError;
			// the next tick re-runs the idempotent round.
			_, err := c.CloseWindow()
			if errors.Is(err, stream.ErrEmptyWindow) {
				err = nil
			}
			c.tickMu.Lock()
			c.tickErr = err // nil on success: a good tick clears the fault
			c.tickMu.Unlock()
		}
	}
}

// TickError returns the most recent unexpected error from a
// ticker-driven cluster close (nil when the last effective tick
// succeeded) — how a deployment notices a worker holding up closes.
func (c *Coordinator) TickError() error {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	return c.tickErr
}

// Close stops the window ticker. Workers are not touched — they are
// independent processes with their own lifecycles.
func (c *Coordinator) Close() error {
	if c.stop != nil {
		c.stopOnce.Do(func() { close(c.stop) })
		c.wg.Wait()
	}
	return c.TickError()
}

// Ring exposes the coordinator's hash ring (for tests and diagnostics).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Window returns the number of cluster-wide closed windows.
func (c *Coordinator) Window() int { return int(c.window.Load()) }

// Campaign returns the cluster campaign metadata. Shards reports the
// worker count — the unit of horizontal scale here, as engine shards
// are on one node.
func (c *Coordinator) Campaign() crowd.StreamCampaignInfo {
	return crowd.StreamCampaignInfo{
		Name:             c.name,
		NumObjects:       c.engCfg.NumObjects,
		Lambda2:          c.engCfg.Lambda2,
		Estimator:        c.estimator,
		Shards:           len(c.ring.Workers()),
		Window:           c.Window(),
		TotalClaims:      c.totalClaims.Load(),
		EpsilonPerWindow: c.epsWindow,
		Delta:            c.engCfg.Delta,
		EpsilonBudget:    c.engCfg.EpsilonBudget,
	}
}

// Submit routes one claim batch to the worker owning the submitting
// user — a view onto SubmitFrame for callers holding a Submission.
func (c *Coordinator) Submit(ctx context.Context, sub crowd.Submission) (crowd.StreamReceipt, error) {
	return c.SubmitFrame(ctx, crowd.FrameOf(sub))
}

// SubmitFrame routes one decoded claim batch to the worker owning the
// submitting user over that worker's client (the zero-allocation ingest
// path lives on the workers; the coordinator is a proxy either way).
// The worker's answer — receipt or typed rejection (duplicate window,
// exhausted budget) — passes through unchanged except that the
// receipt's TotalClaims becomes the cluster-wide count. A transport
// failure maps to crowd.ErrWorkerUnavailable naming the worker; the
// claim was not ingested anywhere.
func (c *Coordinator) SubmitFrame(ctx context.Context, f *crowd.ClaimFrame) (crowd.StreamReceipt, error) {
	if len(f.ClientID) == 0 {
		return crowd.StreamReceipt{}, fmt.Errorf("%w: empty clientId", crowd.ErrBadSubmission)
	}
	sub := crowd.Submission{ClientID: string(f.ClientID), Claims: f.Claims}
	owner := c.ring.Owner(sub.ClientID)
	receipt, err := c.clients[owner].StreamSubmit(ctx, sub)
	if err != nil {
		var httpErr *crowd.HTTPError
		if !errors.As(err, &httpErr) {
			// No HTTP response at all: the worker is down or unreachable.
			if c.routeErrors != nil {
				c.routeErrors.With(owner).Inc()
			}
			return crowd.StreamReceipt{}, fmt.Errorf("%w: worker %s: %v", crowd.ErrWorkerUnavailable, owner, err)
		}
		return crowd.StreamReceipt{}, err
	}
	if c.routedClaims != nil {
		c.routedClaims.With(owner).Inc()
	}
	receipt.TotalClaims = c.totalClaims.Add(int64(receipt.Accepted))
	return receipt, nil
}

// CloseWindow runs one cluster-wide coordinated close (see the package
// comment for the protocol) and returns the merged window estimate. An
// all-empty cluster fails with stream.ErrEmptyWindow and advances
// nothing; an unreachable worker withholds the result and leaves the
// round retryable. Every RPC of the round, retries included, carries
// one fresh X-Request-ID, which the round's log line names.
func (c *Coordinator) CloseWindow() (info crowd.StreamWindowInfo, err error) {
	c.windowMu.Lock()
	defer c.windowMu.Unlock()
	window := int(c.window.Load()) + 1
	workers := c.ring.Workers()
	ctx := obs.WithRequestID(context.Background(), obs.NewRequestID())
	defer func() { logRound(ctx, "close round", window, err) }()

	// Round 1: probe-close every worker. Workers holding live statistics
	// close and export; empty workers report empty (nil) without closing.
	states := make([]*stream.EngineState, len(workers))
	if err := c.fanOut(workers, func(i int, w string) error {
		st, err := c.closeWorker(ctx, w, window, false)
		states[i] = st
		return err
	}); err != nil {
		return crowd.StreamWindowInfo{}, err
	}
	if !slices.ContainsFunc(states, func(st *stream.EngineState) bool { return st != nil }) {
		return crowd.StreamWindowInfo{}, fmt.Errorf("%w: window %d empty on all %d workers",
			stream.ErrEmptyWindow, window, len(workers))
	}
	// Round 2: force-close the empty minority so every worker advances
	// together (their users still decay, exactly as on a single node).
	if err := c.fanOut(workers, func(i int, w string) error {
		if states[i] != nil {
			return nil
		}
		st, err := c.closeWorker(ctx, w, window, true)
		states[i] = st
		return err
	}); err != nil {
		return crowd.StreamWindowInfo{}, err
	}

	return c.mergeAndCommitLocked(ctx, window, states)
}

// mergeAndCommitLocked is the second half of a coordinated close —
// merge the disjoint per-worker exports, run the one true estimation,
// commit the merged carries back, then (and only then) advance and
// publish. Shared by CloseWindow and the boot-time re-drive. Callers
// must hold windowMu.
func (c *Coordinator) mergeAndCommitLocked(ctx context.Context, window int, states []*stream.EngineState) (crowd.StreamWindowInfo, error) {
	workers := c.ring.Workers()
	merged, err := stream.MergeStates(states)
	if err != nil {
		return crowd.StreamWindowInfo{}, fmt.Errorf("cluster: merge window %d: %w", window, err)
	}
	eng, err := stream.New(mergeConfig(c.engCfg))
	if err != nil {
		return crowd.StreamWindowInfo{}, fmt.Errorf("cluster: merge engine: %w", err)
	}
	defer func() {
		_ = eng.Close()
	}()
	if err := eng.Restore(merged); err != nil {
		return crowd.StreamWindowInfo{}, fmt.Errorf("cluster: restore merged state: %w", err)
	}
	res, err := eng.CloseWindow()
	if err != nil {
		return crowd.StreamWindowInfo{}, fmt.Errorf("cluster: estimate window %d: %w", window, err)
	}
	carries, err := eng.ExportCarry()
	if err != nil {
		return crowd.StreamWindowInfo{}, fmt.Errorf("cluster: export carries: %w", err)
	}

	// Commit the merged carries back to each user's owning worker. Every
	// worker gets a commit — even with no carries to receive — because
	// commit also runs the eviction the cluster close deferred.
	byWorker := make(map[string][]stream.UserCarry, len(workers))
	for _, carry := range carries {
		owner := c.ring.Owner(carry.ID)
		byWorker[owner] = append(byWorker[owner], carry)
	}
	if err := c.fanOut(workers, func(i int, w string) error {
		return c.commitWorker(ctx, w, window, byWorker[w])
	}); err != nil {
		// The result is withheld, not partially published: the window
		// does not advance, and the next close re-runs the idempotent
		// round (workers resend their first exports, the merge
		// reproduces the same result, commits re-apply the same values).
		return crowd.StreamWindowInfo{}, err
	}

	c.window.Store(int64(window))
	if c.windowCloses != nil {
		c.windowCloses.Inc()
	}
	info := crowd.WindowInfo(res)
	kept := info
	kept.Weights = nil
	c.histMu.Lock()
	c.history = append(c.history, kept)
	if len(c.history) > c.histCap {
		c.history = c.history[len(c.history)-c.histCap:]
	}
	c.weights = info.Weights
	c.histMu.Unlock()
	return info, nil
}

// closeWorker invokes one worker's close RPC with retries and returns
// the worker's decoded export — nil only when a probe (force false)
// found the worker empty. An export that is not the state before window
// is refused, withholding the round.
func (c *Coordinator) closeWorker(ctx context.Context, worker string, window int, force bool) (*stream.EngineState, error) {
	var lastErr error
	for attempt := 0; attempt <= closeRPCRetries; attempt++ {
		if attempt > 0 && c.closeRetries != nil {
			c.closeRetries.Inc()
		}
		st, err := c.clients[worker].ClusterClose(ctx, crowd.ClusterCloseRequest{Window: window, Force: force})
		switch {
		case err == nil && st == nil && force:
			return nil, fmt.Errorf("%w: worker %s answered the forced close of window %d as empty", stream.ErrBadState, worker, window)
		case err == nil && st != nil && st.Window != window-1:
			return nil, fmt.Errorf("%w: worker %s exported its state after %d windows for the close of window %d",
				stream.ErrBadState, worker, st.Window, window)
		case err == nil:
			return st, nil
		}
		var httpErr *crowd.HTTPError
		if errors.As(err, &httpErr) || errors.Is(err, stream.ErrBadStateEncoding) {
			// The worker answered: retrying the same request will not
			// change its mind.
			return nil, fmt.Errorf("cluster: worker %s closing window %d: %w", worker, window, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %s closing window %d: %v",
		crowd.ErrWorkerUnavailable, worker, window, lastErr)
}

// commitWorker invokes one worker's commit RPC with retries.
func (c *Coordinator) commitWorker(ctx context.Context, worker string, window int, carries []stream.UserCarry) error {
	var lastErr error
	for attempt := 0; attempt <= closeRPCRetries; attempt++ {
		if attempt > 0 && c.closeRetries != nil {
			c.closeRetries.Inc()
		}
		_, err := c.clients[worker].ClusterCommit(ctx, crowd.ClusterCommitRequest{Window: window, Carries: carries})
		if err == nil {
			return nil
		}
		var httpErr *crowd.HTTPError
		if errors.As(err, &httpErr) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s committing window %d: %v",
		crowd.ErrWorkerUnavailable, worker, window, lastErr)
}

// logRound writes one line for a close round or re-drive, keyed by the
// request ID its RPCs carried (the workers log the same ID): a withheld
// round at warn level, anything else at debug.
func logRound(ctx context.Context, what string, window int, err error) {
	level := slog.LevelDebug
	attrs := []slog.Attr{slog.String("request_id", obs.RequestID(ctx)), slog.Int("window", window)}
	if err != nil {
		if !errors.Is(err, stream.ErrEmptyWindow) {
			level = slog.LevelWarn
		}
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	slog.Default().LogAttrs(ctx, level, "cluster "+what, attrs...)
}

// fanOut runs f once per worker concurrently and joins the failures.
func (c *Coordinator) fanOut(workers []string, f func(i int, worker string) error) error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			errs[i] = f(i, w)
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TruthsAt returns one retained merged window (1-based; 0 = latest, or
// crowd.ErrNotReady before the first cluster-wide close), mirroring the
// single-node contract, per-user weights included.
func (c *Coordinator) TruthsAt(window int, weights bool) (crowd.StreamWindowInfo, error) {
	c.histMu.RLock()
	defer c.histMu.RUnlock()
	if len(c.history) == 0 {
		return crowd.StreamWindowInfo{}, crowd.ErrNotReady
	}
	latest := c.history[len(c.history)-1].Window
	if window == 0 {
		window = latest
	}
	for _, info := range c.history {
		if info.Window != window {
			continue
		}
		if weights {
			if window != latest {
				return crowd.StreamWindowInfo{}, fmt.Errorf("%w: weights of window %d (kept for the latest window only)",
					crowd.ErrUnknownWindow, window)
			}
			info.Weights = c.weights
		}
		return info, nil
	}
	return crowd.StreamWindowInfo{}, fmt.Errorf("%w: window %d (retaining up to %d recent windows)",
		crowd.ErrUnknownWindow, window, c.histCap)
}

// Handler returns an http.Handler serving the cluster front door: the
// same handler set a single node mounts (crowd.RegisterStream), over
// this coordinator.
func (c *Coordinator) Handler() http.Handler { return crowd.StreamHandler(c, c.maxBytes) }
