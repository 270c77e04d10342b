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
// would. The claim travels on the caller's goroutine over one of the
// coordinator's pooled keep-alive connections to that worker (see
// forward.go); the close, commit and status RPCs go through a
// crowd.Client. A worker that cannot be reached fails the claim with the
// typed worker_unavailable envelope naming the worker; nothing was
// ingested, so the client can simply retry.
package cluster

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"pptd/internal/crowd"
	"pptd/internal/obs"
	"pptd/internal/stream"
)

// ErrBadConfig reports an invalid coordinator configuration.
var ErrBadConfig = errors.New("cluster: invalid config")

// closeRPCRetries is how many times each per-worker close/commit RPC is
// retried within one CloseWindow call before the round is abandoned. The
// protocol is idempotent, so an abandoned round is simply re-run by the
// next close.
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
	// HTTPClient overrides the HTTP client of the close, commit and
	// status RPCs. Routed claims travel over the coordinator's own
	// pooled connections instead, which honour no proxy environment.
	// They verify an https worker with the TLSClientConfig of
	// HTTPClient's *http.Transport, or crypto/tls's default
	// configuration when it has none; NewCoordinator opens one such
	// connection per worker, so a worker the claims cannot reach fails
	// it.
	HTTPClient *http.Client
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
	engCfg    stream.Config // Config.Engine, validated, minus the per-node fields
	epsWindow float64       // engCfg's per-window charge
	ring      *Ring
	clients   map[string]*crowd.Client // close, commit and status RPCs
	claimHops map[string]*forwarder    // routed claims

	// windowMu serializes cluster window closes (manual and ticker).
	windowMu sync.Mutex
	window   atomic.Int64 // closed windows, mutated only under windowMu

	// claims holds each worker's own claim count as last reported, at
	// boot, in a receipt or in a close export; a count only grows. Their
	// sum is the cluster's TotalClaims, the count a merged result sums
	// too, so a reply lost after its worker ingested is caught up by that
	// worker's next report.
	claims map[string]*atomic.Int64

	// history entries hold no per-user weights; weights is the latest's.
	histMu  sync.RWMutex
	history []crowd.StreamWindowInfo
	weights map[string]float64

	routedClaims *obs.CounterVec
	routeErrors  *obs.CounterVec
	windowCloses *obs.Counter
	closeRetries *obs.Counter
}

// NewCoordinator validates the configuration, contacts every worker
// (all must be reachable, serve the coordinator's campaign parameters
// and agree on the window count — a cluster must not boot torn), and
// returns a serving coordinator. It starts no goroutine; Close releases
// the connections it keeps to the workers, which keep their own
// lifecycles.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("%w: no workers", ErrBadConfig)
	}
	// The merge engine lives for one estimation, in memory: it must never
	// journal, spill, or report metrics of its own. Its config is checked
	// as a worker's engine checks it: the field rules, then the charge.
	engCfg := cfg.Engine
	engCfg.Ledger, engCfg.UserStore, engCfg.Metrics = nil, nil, nil
	engCfg.ClaimWAL, engCfg.MaxResidentUsers = false, 0
	if err := engCfg.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: engine config: %w", err)
	}
	eps, err := engCfg.EpsilonPerWindow()
	if err != nil {
		return nil, fmt.Errorf("cluster: engine config: %w", err)
	}

	ring, err := NewRing(cfg.Workers)
	if err != nil {
		return nil, err
	}
	var opts []crowd.ClientOption
	var tlsConf *tls.Config
	if cfg.HTTPClient != nil {
		opts = append(opts, crowd.WithHTTPClient(cfg.HTTPClient))
		if t, ok := cfg.HTTPClient.Transport.(*http.Transport); ok {
			tlsConf = t.TLSClientConfig
		}
	}
	clients := make(map[string]*crowd.Client, len(ring.Workers()))
	claimHops := make(map[string]*forwarder, len(ring.Workers()))
	claims := make(map[string]*atomic.Int64, len(ring.Workers()))
	for _, w := range ring.Workers() {
		if claimHops[w], err = newForwarder(w, tlsConf); err != nil {
			return nil, err
		}
		if clients[w], err = crowd.NewClient(w, opts...); err != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", w, err)
		}
		claims[w] = new(atomic.Int64)
	}
	c := &Coordinator{
		name:      cfg.Name,
		engCfg:    engCfg,
		epsWindow: eps,
		ring:      ring,
		clients:   clients,
		claimHops: claimHops,
		claims:    claims,
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
		return nil, errors.Join(err, c.Close())
	}
	return c, nil
}

// Close closes the idle connections routed claims use. A claim routed
// after Close dials, and closes its connection when it returns.
func (c *Coordinator) Close() error {
	var errs []error
	for _, fw := range c.claimHops {
		errs = append(errs, fw.close())
	}
	return errors.Join(errs...)
}

// bootSync contacts every worker and adopts the cluster's window count.
// Every worker must publish the coordinator's campaign parameters (see
// sameCampaign) and take one claim connection (see forward.go). All
// workers must be reachable and agree on their effective position —
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
	}
	workers := c.ring.Workers()
	boots := make([]boot, len(workers))
	if err := c.fanOut(workers, func(i int, w string) error {
		info, err := c.clients[w].StreamCampaign(ctx)
		var status crowd.ClusterStatusReply
		if err == nil {
			status, err = c.clients[w].ClusterStatus(ctx)
		}
		if err != nil {
			return fmt.Errorf("%w: %s at boot: %v", crowd.ErrWorkerUnavailable, w, err)
		}
		if err := c.claimHops[w].warm(ctx); err != nil {
			return fmt.Errorf("%w: worker %s answers its RPCs, but a claim connection to it fails: %v",
				ErrBadConfig, w, err)
		}
		boots[i] = boot{worker: w, info: info, status: status}
		return nil
	}); err != nil {
		return err
	}
	want := c.Campaign()
	window := -1
	uncommitted := false
	for _, b := range boots {
		if err := sameCampaign(b.worker, b.info, want); err != nil {
			return err
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
		c.noteClaims(b.worker, b.info.TotalClaims)
	}
	c.window.Store(int64(window))
	if uncommitted && window > 0 {
		err := c.redriveClose(ctx, window)
		logRound(ctx, "re-drive", window, err)
		return err
	}
	return nil
}

// sameCampaign checks that a worker publishes the coordinator's campaign
// parameters: object count, estimator, λ₂, δ, budget and the per-window
// charge, which covers λ₁ through Δ = γ/λ₁. Decay is not in the
// campaign reply, so it goes unchecked.
func sameCampaign(worker string, got, want crowd.StreamCampaignInfo) error {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"objects", got.NumObjects, want.NumObjects},
		{"estimator", got.Estimator, want.Estimator},
		{"lambda2", got.Lambda2, want.Lambda2},
		{"delta", got.Delta, want.Delta},
		{"epsilonBudget", got.EpsilonBudget, want.EpsilonBudget},
		{"epsilonPerWindow", got.EpsilonPerWindow, want.EpsilonPerWindow},
	} {
		if f.got != f.want {
			return fmt.Errorf("%w: worker %s serves %s %v, coordinator configured for %v",
				ErrBadConfig, worker, f.name, f.got, f.want)
		}
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

// Ring exposes the coordinator's hash ring (for tests and diagnostics).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Window returns the number of cluster-wide closed windows.
func (c *Coordinator) Window() int { return int(c.window.Load()) }

// Campaign returns the cluster campaign metadata; Shards is the worker
// count, the unit of horizontal scale here, and TotalClaims the sum of
// the workers' counts as last reported.
func (c *Coordinator) Campaign() crowd.StreamCampaignInfo {
	return crowd.CampaignInfo(c.name, c.engCfg, c.epsWindow, len(c.ring.Workers()), c.Window(), c.totalClaims())
}

// noteClaims raises worker's reported claim count to n (a stale, lower
// report changes nothing) and returns the cluster's TotalClaims.
func (c *Coordinator) noteClaims(worker string, n int64) int64 {
	count := c.claims[worker]
	for cur := count.Load(); n > cur && !count.CompareAndSwap(cur, n); cur = count.Load() {
	}
	return c.totalClaims()
}

// totalClaims sums the workers' reported claim counts.
func (c *Coordinator) totalClaims() int64 {
	var total int64
	for _, count := range c.claims {
		total += count.Load()
	}
	return total
}

// Submit routes one claim batch to the worker owning the submitting
// user — a view onto SubmitFrame for callers holding a Submission.
func (c *Coordinator) Submit(ctx context.Context, sub crowd.Submission) (crowd.StreamReceipt, error) {
	return c.SubmitFrame(ctx, crowd.FrameOf(sub))
}

// SubmitFrame routes one decoded claim batch to the worker owning the
// submitting user, on the caller's goroutine over a pooled connection
// to that worker (the zero-allocation ingest path lives on the workers;
// the coordinator is a proxy either way).
// The worker's answer — receipt or typed rejection (duplicate window,
// exhausted budget) — passes through unchanged except that the
// receipt's TotalClaims, the worker's own count, becomes the cluster's
// (see Campaign). A transport failure maps to crowd.ErrWorkerUnavailable
// naming the worker; a reply lost after the worker ingested the claim
// counts it at the worker's next report.
func (c *Coordinator) SubmitFrame(ctx context.Context, f *crowd.ClaimFrame) (crowd.StreamReceipt, error) {
	if len(f.ClientID) == 0 {
		return crowd.StreamReceipt{}, fmt.Errorf("%w: empty clientId", crowd.ErrBadSubmission)
	}
	clientID := string(f.ClientID)
	owner := c.ring.Owner(clientID)
	receipt, err := c.claimHops[owner].submit(ctx, clientID, f.Claims)
	if err != nil {
		var httpErr *crowd.HTTPError
		if !errors.As(err, &httpErr) {
			// No HTTP response at all (the worker is down or unreachable,
			// or the caller's context ended), or a reply that is not the
			// error envelope or a receipt.
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
	receipt.TotalClaims = c.noteClaims(owner, receipt.TotalClaims)
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
	eng, err := stream.New(c.engCfg)
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
	if len(c.history) > stream.HistoryWindows {
		c.history = c.history[len(c.history)-stream.HistoryWindows:]
	}
	c.weights = info.Weights
	c.histMu.Unlock()
	// The exports' counts land after the result they sum, so a reader of
	// the count and then the result never finds the count ahead.
	for i, st := range states {
		c.noteClaims(workers[i], st.TotalClaims)
	}
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
		crowd.ErrUnknownWindow, window, stream.HistoryWindows)
}
