package crowd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

var (
	// ErrBadConfig reports an invalid server configuration.
	ErrBadConfig = errors.New("crowd: invalid server config")
	// ErrNotReady reports a truths request before any window closed.
	ErrNotReady = errors.New("crowd: result not ready")
	// ErrBadSubmission reports a malformed submission.
	ErrBadSubmission = errors.New("crowd: bad submission")
)

// StreamServerConfig parameterizes a streaming campaign server.
type StreamServerConfig struct {
	// Name labels the streaming campaign.
	Name string
	// Engine configures the underlying truth-discovery stream engine
	// (objects, shards, decay, privacy accounting, ...).
	Engine stream.Config
	// Persistence, when set, makes the server durable: the engine is
	// recovered on startup (latest snapshot, idempotent journal replay —
	// including claims when Engine.ClaimWAL journaled them — and the
	// last published window result, so /v1/stream/truths answers
	// immediately), every privacy charge is journaled through the store
	// before the submission is acknowledged (unless Engine.Ledger was
	// set explicitly; concurrent submissions share group-commit fsyncs),
	// each window close persists its result and snapshots the engine per
	// the store's cadence (streamstore.Options.SnapshotEvery /
	// SnapshotBytes), and a full snapshot is forced on graceful Close.
	// The caller opens the store and keeps ownership: Close the server
	// first, then the store.
	Persistence *streamstore.Store
	// WindowInterval, when positive, closes windows automatically on a
	// ticker so a deployment does not depend on an external
	// POST /v1/stream/window driver. Ticks on an empty window are
	// skipped. Auto closes serialize with manual closes and with
	// persistence snapshots.
	WindowInterval time.Duration
	// MaxRequestBytes caps the request body of every POST route this
	// server mounts — stream claims and the cluster close/commit RPCs.
	// Oversized bodies get the 413 payload_too_large envelope before
	// being buffered. Zero means DefaultMaxRequestBytes; negative is a
	// config error.
	MaxRequestBytes int64
}

// StreamServer is the untrusted aggregation server: it ingests perturbed
// claim batches continuously into a sharded stream engine and serves the
// latest per-window estimate as a live snapshot. It only ever sees
// perturbed data; the privacy of each user rests on the client-side
// perturbation, not on trusting this process. Safe for concurrent use.
type StreamServer struct {
	name     string
	engine   *stream.Engine
	store    *streamstore.Store
	maxBytes int64 // request-body cap on every POST route

	// windowMu serializes window closes — manual, ticker-driven, and the
	// persistence snapshot that follows each — so a snapshot always
	// captures the state its window close produced.
	windowMu sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// clusterExport holds the last ClusterClose export as encoded bytes
	// for the 1-based window clusterExportWindow, under windowMu, making
	// the close RPC idempotent: a coordinator retrying after a partial
	// cluster close gets the identical bytes back instead of closing a
	// second window. On a durable server they are the persisted record's
	// payload, held only until the commit marks that record committed;
	// after it clusterExport is nil, clusterExportWindow stays, and a
	// retry reads the record back. clusterExportDurable tracks whether
	// the held bytes made it to disk, and clusterCommitted is the last
	// window whose merged carries were applied (see ClusterCommit /
	// ClusterStatus).
	clusterExport        []byte
	clusterExportWindow  int
	clusterExportDurable bool
	clusterCommitted     int

	tickMu  sync.Mutex
	tickErr error
}

// NewStreamServer starts a streaming campaign server. With persistence
// configured it first recovers the engine (snapshot, journal replay,
// last published result), so returning users keep their cumulative
// privacy spending, the estimator resumes from its persisted sufficient
// statistics — including journal-replayed claims when the claim WAL is
// enabled — and the previous estimate is served right away. Close it to
// stop the window ticker and the engine's shard workers.
func NewStreamServer(cfg StreamServerConfig) (*StreamServer, error) {
	if cfg.WindowInterval < 0 {
		return nil, fmt.Errorf("%w: WindowInterval = %v", ErrBadConfig, cfg.WindowInterval)
	}
	if cfg.MaxRequestBytes < 0 {
		return nil, fmt.Errorf("%w: MaxRequestBytes = %d", ErrBadConfig, cfg.MaxRequestBytes)
	}
	if cfg.Persistence != nil && cfg.Engine.Ledger == nil && cfg.Engine.Lambda1 > 0 {
		cfg.Engine.Ledger = cfg.Persistence
	}
	if cfg.Persistence != nil && cfg.Engine.UserStore == nil {
		// The store doubles as the engine's user spill store, so
		// the residency cap (MaxResidentUsers) works out of
		// the box on a durable server — and journal replay can re-admit
		// users whose only remaining trace is a spill record.
		cfg.Engine.UserStore = cfg.Persistence
	}
	eng, err := stream.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("crowd: stream server: %w", err)
	}
	if cfg.Persistence != nil {
		if _, err := cfg.Persistence.Recover(eng); err != nil {
			_ = eng.Close()
			return nil, fmt.Errorf("crowd: stream server: recover state: %w", err)
		}
	}
	s := &StreamServer{
		name:     cfg.Name,
		engine:   eng,
		store:    cfg.Persistence,
		maxBytes: effectiveMaxRequestBytes(cfg.MaxRequestBytes),
	}
	if cfg.Persistence != nil {
		// Recover the cluster close position. A worker killed mid-round
		// (closed, not yet committed) holds the export again, for the
		// coordinator's retried close — its recovered engine may already
		// be past the window — and for the commit's rewrite. A committed
		// record is checksum-verified here and its payload dropped: a
		// retried close reads it back from disk.
		cs, err := cfg.Persistence.LoadClusterClose()
		if err != nil {
			_ = eng.Close()
			return nil, fmt.Errorf("crowd: stream server: recover cluster close state: %w", err)
		}
		if cs != nil {
			s.clusterExportWindow, s.clusterExportDurable = cs.Window, true
			if cs.Committed {
				s.clusterCommitted = cs.Window
			} else {
				s.clusterExport = cs.State
			}
		}
	}
	if cfg.WindowInterval > 0 {
		s.stop = make(chan struct{})
		s.wg.Add(1)
		go s.autoCloseLoop(cfg.WindowInterval)
	}
	return s, nil
}

// autoCloseLoop closes windows on the configured interval until Close.
func (s *StreamServer) autoCloseLoop(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			// An empty window just means no traffic this tick, and a
			// closed engine means shutdown is racing the ticker; neither
			// stops the loop. Anything else — above all a failed
			// persistence snapshot — must not vanish silently: it is
			// retained for TickError and returned from Close.
			_, err := s.CloseWindow()
			if errors.Is(err, stream.ErrEmptyWindow) || errors.Is(err, stream.ErrEngineClosed) {
				continue
			}
			s.tickMu.Lock()
			s.tickErr = err // nil on success: a good tick clears the fault
			s.tickMu.Unlock()
		}
	}
}

// TickError returns the most recent unexpected error from a
// ticker-driven window close (nil when the last effective tick
// succeeded). With persistence configured this is how a deployment
// notices that snapshots have started failing — e.g. a full disk —
// before a crash makes the stale snapshot matter.
func (s *StreamServer) TickError() error {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	return s.tickErr
}

// Engine exposes the underlying stream engine (for embedding servers
// that drive window closes themselves).
func (s *StreamServer) Engine() *stream.Engine { return s.engine }

// Close stops the window ticker, persists a final snapshot when a store
// is configured (so a graceful shutdown loses not even the open window's
// statistics), and stops the engine's shard workers. It does not close
// the store itself — the caller that opened it does.
func (s *StreamServer) Close() error {
	if s.stop != nil {
		s.stopOnce.Do(func() { close(s.stop) })
		s.wg.Wait()
	}
	s.windowMu.Lock()
	defer s.windowMu.Unlock()
	var snapErr error
	if s.store != nil {
		if err := s.store.SnapshotEngine(s.engine); err != nil && !errors.Is(err, stream.ErrEngineClosed) {
			snapErr = fmt.Errorf("crowd: final stream snapshot: %w", err)
		}
	}
	if err := s.engine.Close(); err != nil {
		return err
	}
	return errors.Join(snapErr, s.TickError())
}

// Handler returns the HTTP handler serving the streaming campaign API:
// the shared front door (RegisterStream) over this server.
func (s *StreamServer) Handler() http.Handler { return StreamHandler(s, s.maxBytes) }

// Campaign returns the streaming campaign metadata.
func (s *StreamServer) Campaign() StreamCampaignInfo {
	return StreamCampaignInfo{
		Name:             s.name,
		NumObjects:       s.engine.NumObjects(),
		Lambda2:          s.engine.Lambda2(),
		Estimator:        s.engine.Estimator(),
		Shards:           s.engine.NumShards(),
		Window:           s.engine.Window(),
		TotalClaims:      s.engine.TotalClaims(),
		EpsilonPerWindow: s.engine.EpsilonPerWindow(),
		Delta:            s.engine.Delta(),
		EpsilonBudget:    s.engine.EpsilonBudget(),
	}
}

// Submit ingests one perturbed claim batch into the current window — a
// view onto SubmitFrame for callers holding a Submission.
func (s *StreamServer) Submit(sub Submission) (StreamReceipt, error) {
	return s.SubmitFrame(context.TODO(), FrameOf(sub))
}

// SubmitFrame ingests one decoded claim batch into the current window
// straight from the frame's buffers: the client ID only materializes as
// a string the first time a user is seen, so a pooled frame makes the
// path allocation-free per claim. It never blocks on the network, so
// the context goes unused.
func (s *StreamServer) SubmitFrame(_ context.Context, f *ClaimFrame) (StreamReceipt, error) {
	accepted, window, err := s.engine.IngestBytes(f.ClientID, f.Claims)
	if err != nil {
		return StreamReceipt{}, err
	}
	return StreamReceipt{
		Accepted:    accepted,
		Window:      window,
		TotalClaims: s.engine.TotalClaims(),
	}, nil
}

// CloseWindow closes the current window and returns its estimate. With
// persistence configured, the published result is persisted (so a
// restart can serve it immediately) and the engine is snapshotted per
// the store's cadence before the result is returned; a persistence
// failure is reported as an error even though the window already closed
// (the estimate stays available via Truths, and the journal still
// covers every charge — and claim, with the claim WAL — until the next
// snapshot succeeds).
func (s *StreamServer) CloseWindow() (StreamWindowInfo, error) {
	s.windowMu.Lock()
	defer s.windowMu.Unlock()
	res, err := s.engine.CloseWindow()
	if err != nil {
		return StreamWindowInfo{}, err
	}
	if s.store != nil {
		if err := s.store.SaveResult(res); err != nil {
			return StreamWindowInfo{}, fmt.Errorf("crowd: persist stream result: %w", err)
		}
		// SnapshotEngine captures the journal offset before exporting, so
		// a submission acknowledged while the snapshot is being written
		// keeps its journal record through the compaction.
		if _, err := s.store.MaybeSnapshotEngine(s.engine); err != nil {
			return StreamWindowInfo{}, fmt.Errorf("crowd: write stream snapshot: %w", err)
		}
	}
	return WindowInfo(res), nil
}

// Truths returns the latest closed window's estimate, without per-user
// weights, or ErrNotReady if no window has closed yet.
func (s *StreamServer) Truths() (StreamWindowInfo, error) { return s.TruthsAt(0, false) }

// TruthsAt returns the retained estimate of one specific closed window
// (1-based), serving late readers from the engine's bounded result
// history. Window 0 means the latest. A window that never closed or was
// evicted from the ring fails with ErrUnknownWindow (ErrNotReady when
// nothing has ever closed). weights adds the per-user weights, which the
// engine keeps for the latest window only: an older one fails the same.
func (s *StreamServer) TruthsAt(window int, weights bool) (StreamWindowInfo, error) {
	if weights {
		// No close may land between the two engine reads below.
		s.windowMu.Lock()
		defer s.windowMu.Unlock()
	}
	res := s.engine.Snapshot()
	if res == nil {
		return StreamWindowInfo{}, ErrNotReady
	}
	if window != 0 && window != res.Window {
		var ok bool
		if res, ok = s.engine.ResultAt(window); !ok {
			return StreamWindowInfo{}, fmt.Errorf("%w: window %d (retaining up to %d recent windows)",
				ErrUnknownWindow, window, s.engine.HistoryWindows())
		}
	}
	info := WindowInfo(res)
	if weights {
		var ok bool
		if info.Weights, ok = s.engine.WeightsAt(res.Window); !ok {
			return StreamWindowInfo{}, fmt.Errorf("%w: weights of window %d (kept for the latest window only)",
				ErrUnknownWindow, res.Window)
		}
	}
	return info, nil
}

// Stats returns the server's observability counters: the engine's
// headline numbers, the result-history bounds behind ?window= reads,
// and — on a durable server — the store's journal and group-commit
// histograms since the store opened.
func (s *StreamServer) Stats() StreamStatsInfo {
	info := StreamStatsInfo{
		Name:             s.name,
		Estimator:        s.engine.Estimator(),
		Window:           s.engine.Window(),
		TotalClaims:      s.engine.TotalClaims(),
		HistoryWindows:   s.engine.HistoryWindows(),
		ResidentUsers:    s.engine.ResidentUsers(),
		MaxResidentUsers: s.engine.MaxResidentUsers(),
		Durable:          s.store != nil,
	}
	if hist := s.engine.History(); len(hist) > 0 {
		info.HistoryOldest = hist[0].Window
	}
	if s.store != nil {
		st := s.store.Stats(false)
		info.Store = &st
	}
	return info
}

// WindowInfo converts an engine result to its wire form; uncovered
// truths (NaN, which JSON cannot carry) are zeroed and flagged by the
// Covered mask instead. The cluster coordinator publishes its merged
// estimate through the same conversion.
func WindowInfo(res *stream.WindowResult) StreamWindowInfo {
	truths := make([]float64, len(res.Truths))
	for i, v := range res.Truths {
		if res.Covered[i] {
			truths[i] = v
		}
	}
	return StreamWindowInfo{
		Window:         res.Window,
		Truths:         truths,
		Covered:        res.Covered,
		Weights:        res.Weights,
		EffectiveUsers: res.EffectiveUsers,
		MaxWeightShare: res.MaxWeightShare,
		Estimator:      res.Estimator,
		Iterations:     res.Iterations,
		Converged:      res.Converged,
		ActiveUsers:    res.ActiveUsers,
		WindowClaims:   res.WindowClaims,
		TotalClaims:    res.TotalClaims,
		Privacy:        res.Privacy,
	}
}
