package pptd

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"pptd/internal/cluster"
	"pptd/internal/crowd"
	"pptd/internal/obs"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// ErrNodeConfig reports an invalid NewNode option set: a bad argument, a
// half-configured feature, two options that contradict each other, or a
// StreamConfig its own validation refuses. Every configuration error
// wraps it, so errors.Is(err, ErrNodeConfig) catches them all.
var ErrNodeConfig = errors.New("pptd: invalid node configuration")

// Option configures NewNode. Options carry their own validation; cross-
// option consistency (conflicts, missing prerequisites) is checked once
// after all options applied, so the outcome does not depend on option
// order.
type Option func(*nodeConfig) error

// nodeConfig accumulates the option set before validation. Each setter
// validation depends on refuses its zero value, so a non-zero field is
// one the caller set, which is what lets validation reject
// half-configured feature combinations instead of silently defaulting
// them. The streaming engine has one field here: StreamConfig is its
// configuration, and the node adds to it only what it owns itself (see
// resolveEngine).
type nodeConfig struct {
	name            string
	maxRequestBytes int64

	stream         *StreamConfig // resolved and validated by resolveEngine
	windowInterval time.Duration
	stateDir       string

	clusterWorker  bool
	clusterWorkers []string
	shipDest       string

	logger *slog.Logger
	debug  bool
}

func optErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNodeConfig, fmt.Sprintf(format, args...))
}

// WithName labels the node's campaign.
func WithName(name string) Option {
	return func(c *nodeConfig) error {
		c.name = name
		return nil
	}
}

// validate checks the rules that span subsystems, after every option
// applied: that the node hosts a stream engine, and how persistence,
// the cluster roles and shipping combine. Half-configured or contradictory
// sets fail with a typed error (wrapped ErrNodeConfig) naming the
// options involved — never a silent default. The engine configuration
// is checked by the step that resolves it (resolveEngine).
func (c *nodeConfig) validate() error {
	switch {
	case c.stream == nil:
		return optErr("configure a stream engine (WithStreamConfig)")
	case c.clusterWorker && c.windowInterval > 0:
		return optErr("WithClusterWorker conflicts with WithWindowInterval: the coordinator drives window closes")
	case c.shipDest != "" && c.stateDir == "":
		return optErr("WithSegmentShipping requires WithPersistence: shipping replicates the state directory")
	}
	if c.clusterWorkers == nil {
		return nil
	}
	// An ordered list, so a set with several conflicts always names the
	// same one.
	for _, conflict := range []struct {
		opt string
		set bool
	}{
		{"WithClusterWorker", c.clusterWorker},
		{"WithPersistence", c.stateDir != ""},
		{"WithSegmentShipping", c.shipDest != ""},
		{"StreamConfig.MaxResidentUsers", c.stream.MaxResidentUsers > 0},
	} {
		if conflict.set {
			return optErr("WithClusterCoordinator conflicts with %s: the coordinator holds no engine or durable state of its own", conflict.opt)
		}
	}
	return nil
}

// WithStreamConfig hosts the streaming engine: perturbed claims ingest
// continuously into sharded workers and every window close publishes an
// incremental estimate. StreamConfig is the engine's whole
// configuration — shard count, decay, estimator parameters, result
// history, per-user budget, residency caps; only NumObjects is required
// — and its own validation (StreamConfig.Validate) owns every field
// rule: NewNode runs it before anything is opened and wraps what it
// reports in ErrNodeConfig. Estimator is the one place the estimator is
// chosen: CRH (the default), GTM or CATD. Lambda1, Lambda2 and Delta are
// the one place the privacy rates are set: Lambda2 is the rate devices
// perturb with, and Lambda1 > 0 turns per-user accounting on at
// EpsilonPerWindow. To meet a target (eps, delta), derive Lambda2 with
// NewAccountant(Lambda1).MechanismForEpsilon(eps, delta). The node fills
// in only what it owns: ClaimWAL (on for an accounted node with
// WithPersistence), and — when left nil — Ledger, UserStore and Metrics
// from the node's own store and registry.
func WithStreamConfig(cfg StreamConfig) Option {
	return func(c *nodeConfig) error {
		if c.stream != nil {
			return optErr("WithStreamConfig configured twice")
		}
		own := cfg // NewNode fills fields in; the option stays reusable
		c.stream = &own
		return nil
	}
}

// WithWindowInterval closes streaming windows automatically on a ticker,
// so the deployment does not depend on an external POST
// /v1/stream/window driver: on a cluster coordinator each tick runs the
// cluster-wide close. A tick closes a window whenever any sufficient
// statistic is live, not only when claims arrived since the last tick:
// at Decay 1 a node that ever took a claim closes a window — and, when
// durable, writes a result and a full snapshot — on every tick. Only a
// tick with no live statistic is refused (ErrEmptyWindow) and skipped.
// Node.TickError reports a failing tick. A cluster worker refuses the
// option: its coordinator drives the closes.
func WithWindowInterval(d time.Duration) Option {
	return func(c *nodeConfig) error {
		if d <= 0 {
			return optErr("WithWindowInterval: d = %v", d)
		}
		c.windowInterval = d
		return nil
	}
}

// resolveEngine turns the WithStreamConfig value into the configuration
// the engine (on a coordinator, the merge engine) runs. The node adds
// only the claim-WAL default, checks the fields that need its store,
// and leaves every other field rule to the config's own validation.
func (c *nodeConfig) resolveEngine() error {
	eng := c.stream
	if eng.MaxResidentUsers > 0 && c.stateDir == "" && eng.UserStore == nil {
		return optErr("the residency cap (StreamConfig.MaxResidentUsers) requires WithPersistence: evicted users spill to the store")
	}
	if eng.ClaimWAL {
		// An explicit ClaimWAL must stay loud, never silently defaulted
		// away: it is meaningless without accounting (claims ride the
		// charge journal), and it needs a durable journal to ride.
		switch {
		case eng.Lambda1 <= 0:
			return optErr("WithStreamConfig.ClaimWAL requires accounting (Lambda1 > 0): claims ride the charge journal")
		case c.stateDir == "" && eng.Ledger == nil:
			return optErr("WithStreamConfig.ClaimWAL requires WithPersistence (or an explicit Ledger) to journal into")
		}
	} else if c.stateDir != "" && eng.Lambda1 > 0 {
		// Default the claim WAL on for accounted durable nodes.
		eng.ClaimWAL = true
	}
	if err := eng.Validate(); err != nil {
		return fmt.Errorf("%w: WithStreamConfig: %w", ErrNodeConfig, err)
	}
	return nil
}

// WithPersistence makes the node's campaign durable in the given state
// directory: on an accounted node every submission's charge and claims
// are journaled with an fsync before it is acknowledged (an unaccounted
// node journals nothing per submission, so its open window lives in
// memory until the close), each window close persists its published
// result (the retained history, so ?window= reads survive restarts) and
// snapshots the engine, and residency-cap evictions
// (StreamConfig.MaxResidentUsers) spill user state to the same store.
// The node owns the store: NewNode opens it and Node.Close closes it.
func WithPersistence(dir string) Option {
	return func(c *nodeConfig) error {
		if dir == "" {
			return optErr("WithPersistence: empty state directory")
		}
		if c.stateDir != "" {
			return optErr("WithPersistence configured twice")
		}
		c.stateDir = dir
		return nil
	}
}

// openStore opens the WithPersistence state directory.
func (n *Node) openStore(c *nodeConfig) error {
	if c.stateDir == "" {
		return nil
	}
	// Persist as many recent results as the engine retains, so ?window=
	// reads answer the same span across a restart.
	opts := streamstore.Options{Metrics: n.metrics, ResultHistory: stream.HistoryWindows}
	store, err := streamstore.OpenWith(c.stateDir, opts)
	if err != nil {
		return err
	}
	n.store = store
	return nil
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
// single node's. The engine configuration (WithStreamConfig, privacy
// rates included) is the one shared with the workers, which is
// cross-checked against each worker at startup;
// WithWindowInterval drives cluster-wide closes. The coordinator holds
// no durable state — durability lives on the workers — so it conflicts
// with WithPersistence, residency caps, segment shipping, and
// WithClusterWorker.
func WithClusterCoordinator(workers ...string) Option {
	return func(c *nodeConfig) error {
		if len(workers) == 0 {
			return optErr("WithClusterCoordinator: no workers")
		}
		if c.clusterWorkers != nil {
			return optErr("WithClusterCoordinator configured twice")
		}
		c.clusterWorkers = append([]string(nil), workers...)
		return nil
	}
}

// startStream starts what sits behind the streaming API: the local
// stream server over the node's store, or — in coordinator mode, where
// the engine config describes the cluster's shared engine and no local
// engine runs — the cluster coordinator.
func (n *Node) startStream(c *nodeConfig) error {
	if c.stream.Metrics == nil {
		c.stream.Metrics = n.metrics
	}
	if c.clusterWorkers != nil {
		coord, err := cluster.NewCoordinator(cluster.Config{
			Name:    c.name,
			Engine:  *c.stream,
			Workers: c.clusterWorkers,
			Metrics: n.metrics,
		})
		if err != nil {
			return err
		}
		n.coord = coord
		return nil
	}
	srv, err := crowd.NewStreamServer(crowd.StreamServerConfig{
		Name:            c.name,
		Engine:          *c.stream,
		Persistence:     n.store,
		MaxRequestBytes: c.maxRequestBytes,
	})
	if err != nil {
		return err
	}
	n.stream = srv
	return nil
}

// WithSegmentShipping replicates the node's durable state to dest in
// the background: sealed journal segments ship once, the active
// segment's durable prefix, snapshots, results, and the spill file
// follow on every pass. dest is a directory, created if missing: a
// local archive, or a mounted volume that puts the replica off-box. A
// fresh node pointed at it recovers to the shipped state (warm standby,
// point-in-time restore). A URL is refused: shipping writes files, it
// speaks no network protocol. A pass runs every shipInterval and once
// more on Close. Requires WithPersistence.
func WithSegmentShipping(dest string) Option {
	return func(c *nodeConfig) error {
		if dest == "" {
			return optErr("WithSegmentShipping: empty destination")
		}
		if strings.Contains(dest, "://") {
			return optErr("WithSegmentShipping(%q): shipping writes to a directory (for example a mounted volume), not a URL", dest)
		}
		if c.shipDest != "" {
			return optErr("WithSegmentShipping configured twice")
		}
		c.shipDest = dest
		return nil
	}
}

// shipInterval is the segment-shipping cadence.
const shipInterval = 5 * time.Second

// startShipper starts the WithSegmentShipping loop over the node's store.
func (n *Node) startShipper(c *nodeConfig) error {
	if c.shipDest == "" {
		return nil
	}
	sink, err := cluster.NewDirSink(c.shipDest)
	if err != nil {
		return fmt.Errorf("%w: WithSegmentShipping(%q): %w", ErrNodeConfig, c.shipDest, err)
	}
	shipper, err := cluster.NewShipper(n.store, sink, shipInterval, n.metrics)
	if err != nil {
		return err
	}
	n.shipper = shipper
	shipper.Start()
	return nil
}

// WithMaxRequestBytes caps the request body of every POST route the node
// serves — stream claims and (on cluster workers and coordinators) the
// cluster close/commit RPCs. An oversized body is refused with the 413
// payload_too_large envelope before it is buffered, so one client cannot
// exhaust the node's memory with a single giant request. The default is
// 16 MiB (see the API docs); raise it for deployments whose legitimate
// batches are larger, or lower it to tighten the ingest surface.
func WithMaxRequestBytes(n int64) Option {
	return func(c *nodeConfig) error {
		if n <= 0 {
			return optErr("WithMaxRequestBytes: n = %d", n)
		}
		c.maxRequestBytes = n
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

// mount builds the front door: every started subsystem on one mux,
// behind the telemetry middleware.
func (n *Node) mount(c *nodeConfig) {
	mux := http.NewServeMux()
	// One front door whatever sits behind it.
	crowd.RegisterStream(mux, n.backend(), c.maxRequestBytes)
	if c.clusterWorker {
		n.stream.RegisterCluster(mux)
	}
	mux.Handle(crowd.PathMetrics, crowd.GetOnly(n.metrics.Handler()))
	if c.debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// The telemetry middleware wraps the whole front door — every route,
	// the not-found envelope, /metrics itself — labeling each request
	// with its mux pattern so metric cardinality stays bounded no matter
	// what paths are probed. One mux lookup labels and dispatches; paths
	// no route is mounted at get the JSON error envelope (code
	// "not_found"), not net/http's plain-text 404.
	notFound := crowd.NotFoundHandler()
	n.handler = obs.Middleware(obs.MiddlewareConfig{
		Registry: n.metrics,
		Logger:   c.logger,
		Route: func(r *http.Request) (http.Handler, string) {
			if h, pattern := mux.Handler(r); pattern != "" {
				return h, pattern
			}
			return notFound, "unmatched"
		},
	})(mux)
}

// backend returns what sits behind the streaming API: the cluster
// coordinator, or else the local stream server (startStream starts one
// or the other).
func (n *Node) backend() crowd.StreamBackend {
	if n.coord != nil {
		return n.coord
	}
	return n.stream
}

// startTicker runs the WithWindowInterval clock once every subsystem is
// up: each tick closes the window on the node's backend. A tick on an
// empty window leaves the retained error as it was; any other outcome
// replaces it, so a good close clears a fault and a failed one (a
// snapshot that could not be written, an unreachable worker) is kept
// for TickError and returned from Close.
func (n *Node) startTicker(c *nodeConfig) {
	if c.windowInterval <= 0 {
		return
	}
	b := n.backend()
	stop, done := make(chan struct{}), make(chan struct{})
	n.stopTicker = func() { close(stop); <-done }
	go func() {
		defer close(done)
		ticker := time.NewTicker(c.windowInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if _, err := b.CloseWindow(); !errors.Is(err, stream.ErrEmptyWindow) {
					n.tickMu.Lock()
					n.tickErr = err
					n.tickMu.Unlock()
				}
			}
		}
	}()
}

// Node is the unified front door to a privacy-preserving truth-discovery
// deployment: one process that hosts the windowed streaming engine — a
// one-shot campaign is one window — and durable persistence, mounted on
// a single HTTP mux speaking one error-envelope contract. Build it with
// NewNode and functional options; Close releases everything the node
// owns (window ticker, stream engine, shipper, state store).
type Node struct {
	name    string
	stream  *StreamCampaignServer
	store   *StreamStore
	coord   *cluster.Coordinator
	shipper *cluster.Shipper
	metrics *obs.Registry

	handler http.Handler

	stopTicker func() // nil without WithWindowInterval
	tickMu     sync.Mutex
	tickErr    error // see TickError
}

// NewNode builds a node from functional options. A stream engine
// (WithStreamConfig) is required; every option
// carries its defaults, and half-configured or conflicting option sets —
// and a StreamConfig its own validation refuses — fail with an error
// wrapping ErrNodeConfig before anything is opened or started. The
// returned node owns its resources — including the WithPersistence store
// — and must be Closed.
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
	// Everything that can be wrong with the option set is found here,
	// from the options alone.
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.resolveEngine(); err != nil {
		return nil, err
	}
	// Every node carries a metrics registry: the engine, the store, and
	// the HTTP middleware all publish into it, and GET /metrics serves
	// the text exposition. Registration is cheap enough that there is no
	// opt-out — the scrape endpoint simply goes unscraped.
	n := &Node{name: cfg.name, metrics: obs.NewRegistry()}
	// One build step per subsystem, in dependency order, each a no-op
	// when its options are absent; Close releases whatever was started.
	for _, start := range []func(*nodeConfig) error{
		n.openStore, n.startStream, n.startShipper,
	} {
		if err := start(&cfg); err != nil {
			_ = n.Close()
			return nil, err
		}
	}
	n.mount(&cfg)
	n.startTicker(&cfg)
	return n, nil
}

// Name returns the label the node's campaign carries.
func (n *Node) Name() string { return n.name }

// Handler returns the node's HTTP handler: the streaming campaign (and,
// on a cluster worker, the cluster RPCs) on one mux, plus the Prometheus
// exposition at GET /metrics (and, with WithDebugHandlers, pprof under
// /debug/pprof/). Every non-2xx JSON response carries the versioned
// error envelope, every response echoes an X-Request-ID, and every
// request is counted and timed in the node's metrics registry.
func (n *Node) Handler() http.Handler { return n.handler }

// Stream returns the hosted streaming campaign server, or nil on a
// cluster coordinator.
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

// TickError returns the error of the last WithWindowInterval tick that
// found a live statistic (see ErrEmptyWindow): nil when it closed the
// window, else why it could not — how a deployment notices failing
// snapshots (a full disk) or a worker holding up cluster closes before
// a crash makes it matter.
func (n *Node) TickError() error {
	n.tickMu.Lock()
	defer n.tickMu.Unlock()
	return n.tickErr
}

// Close releases everything the node owns, in dependency order: the
// window ticker first (its retained error joins what Close returns),
// then the shipper's last pass, the streaming server (writing a final
// snapshot on a durable node) and the state store. A coordinator holds
// nothing to release.
func (n *Node) Close() error {
	var errs []error
	if n.stopTicker != nil {
		n.stopTicker()
		n.stopTicker = nil
		errs = append(errs, n.TickError())
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
