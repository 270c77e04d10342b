package crowd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// Worker-side cluster RPCs. A multi-node deployment (internal/cluster)
// shards users across N workers by consistent hashing; each worker runs
// an ordinary durable StreamServer for ingest, but window closes are
// driven by the coordinator through the two RPCs here:
//
//  1. POST /v1/cluster/close  — quiesce the open window and export its
//     raw, pre-close sufficient statistics WITHOUT estimating (decay
//     and the window advance still happen locally). The coordinator
//     merges the disjoint per-worker exports and runs the one true
//     estimation over the union, so an N-worker cluster publishes
//     exactly the estimate a single node would have. The reply is the
//     encoded export (ContentTypeEngineState), or 204 for an empty probe.
//  2. POST /v1/cluster/commit — write the merged per-user carry
//     weights back onto the worker that owns each user, then run the deferred idle-user eviction so spill records
//     carry the merged post-estimate state.
//
// Both RPCs are idempotent so the coordinator can retry a partially
// failed cluster close: close encodes its export once per window (a
// retry resends the identical bytes instead of closing a second
// window), and commit re-applies the same values. Each RPC snapshots the
// engine when the worker is durable — a worker must never replay its
// journal across a cluster close boundary, because local replay would
// re-estimate with only this shard's users and diverge from the merged
// truth.
//
// On a durable worker the same bytes are the payload of the persisted
// record (streamstore.ClusterCloseState, written BEFORE the post-close
// snapshot), so the idempotence holds across a crash at any point of
// the round: a worker killed between its close and the coordinator's
// commit comes back still able to serve the retried close for the
// window its engine already advanced past. The commit flips the
// record's Committed flag only after the merged carries are
// snapshotted; a coordinator booting against workers whose records say
// "closed but not committed" re-drives the merge/commit from those
// exports before serving (see cluster.Coordinator and ClusterStatus).
//
// A durable worker holds its export bytes only while the round is open:
// from the close until the commit's rewrite of the record succeeds, and
// on boot only when the record is not committed. After that the record
// is the retry cache — a close retried for a committed window (its
// commit reply was lost) reads the payload back from disk, checksum
// verified, and serves it without holding it again. A worker with no
// store has no other copy and keeps its bytes until the next close.

// ContentTypeEngineState is the Content-Type of a worker's 200 reply to
// POST /v1/cluster/close: one engine state in stream.AppendEngineState's
// encoding (docs/WIRE.md), the payload layout of cluster-close.json.
const ContentTypeEngineState = "application/x-pptd-engine-state"

// ClusterCloseRequest asks a worker to close one window and export its
// sufficient statistics.
type ClusterCloseRequest struct {
	// Window is the 1-based index of the window being closed; the worker
	// refuses when its engine is not exactly there (a torn cluster or a
	// stale coordinator).
	Window int `json:"window"`
	// Force closes the window even when the worker holds no live
	// statistics. The coordinator's first round probes with Force false
	// so an all-empty cluster can refuse the close like a single node
	// would (ErrEmptyWindow, nothing advanced); the second round forces
	// the empty minority once any worker reported data.
	Force bool `json:"force"`
}

// ClusterCloseReply is the worker's answer to ClusterCloseRequest.
type ClusterCloseReply struct {
	// Empty reports a non-forced close against a worker with no live
	// statistics: the window was NOT closed and State is nil.
	Empty bool
	// State is the worker's exported pre-close engine state (its Window
	// field is the closed-window count before this close, i.e.
	// request.Window-1), encoded by stream.AppendEngineState: read-only.
	// While the round is open it is the export the worker holds; once a
	// durable worker committed the window, a fresh read of the record's
	// payload.
	State []byte
}

// ClusterCommitRequest writes the merged post-estimate carry weights
// back onto the worker owning each user.
type ClusterCommitRequest struct {
	// Window is the 1-based window the carries resulted from; the worker
	// must already have closed it (engine at Window closed windows).
	Window int `json:"window"`
	// Carries holds the merged carry weight of each user this worker
	// owns.
	Carries []stream.UserCarry `json:"carries"`
}

// ClusterCommitReply acknowledges a ClusterCommitRequest.
type ClusterCommitReply struct {
	// Window echoes the committed window.
	Window int `json:"window"`
}

// ClusterStatusReply reports the worker's position in the cluster close
// protocol — what a booting coordinator needs to tell a fully committed
// cluster from one whose last close round was interrupted mid-commit.
type ClusterStatusReply struct {
	// Window is the worker's closed-window count.
	Window int `json:"window"`
	// PendingWindow is the window of the worker's last close export (0
	// when the worker never served a coordinated close). The export —
	// held in memory until the commit, and on disk after it on a
	// persistent worker — stays servable until the next close replaces
	// it, so a re-driven merge can always re-read it.
	PendingWindow int `json:"pendingWindow,omitempty"`
	// CommittedWindow is the last window whose merged carries this
	// worker applied and made durable. CommittedWindow < PendingWindow
	// means the close round for PendingWindow never finished: the
	// coordinator must re-drive its merge/commit before serving.
	CommittedWindow int `json:"committedWindow,omitempty"`
}

// ClusterClose serves one coordinator-driven window close: it verifies
// the worker is at the expected window, quiesces ingest, and exports
// the open window's raw sufficient statistics without estimating,
// encoded once. The call is idempotent per window — a retried close
// returns the very bytes of the first. A non-forced close of a worker
// with no live statistics replies Empty without closing anything.
func (s *StreamServer) ClusterClose(req ClusterCloseRequest) (ClusterCloseReply, error) {
	s.windowMu.Lock()
	defer s.windowMu.Unlock()
	// The retry check comes before everything else: after a partial
	// cluster close this worker's engine already advanced, and only the
	// first export lets the coordinator's retry converge.
	if s.clusterExportWindow > 0 && s.clusterExportWindow == req.Window {
		if s.clusterExport == nil {
			// A durable worker whose round committed: the engine is past
			// the window and snapshotted, so there is nothing to repair.
			return s.committedExportLocked(req.Window)
		}
		// A crash (or a failed durable step) between the export and the
		// post-close snapshot can leave the recovered engine un-advanced,
		// or the export not yet on disk. Repair both before answering, so
		// the commit that follows finds a consistent worker — and serve
		// the ORIGINAL export, which the coordinator may already have
		// merged, not a re-export.
		if s.engine.Window()+1 == req.Window {
			if _, err := s.engine.CloseWindowExport(); err != nil {
				return ClusterCloseReply{}, err
			}
		}
		if err := s.persistClusterCloseLocked(); err != nil {
			return ClusterCloseReply{}, err
		}
		return ClusterCloseReply{State: s.clusterExport}, nil
	}
	if got := s.engine.Window() + 1; got != req.Window {
		return ClusterCloseReply{}, fmt.Errorf("%w: cluster close of window %d but worker's open window is %d",
			ErrBadSubmission, req.Window, got)
	}
	if !req.Force && !s.engine.HasLiveStats() {
		return ClusterCloseReply{Empty: true}, nil
	}
	st, err := s.engine.CloseWindowExport()
	if err != nil {
		return ClusterCloseReply{}, err
	}
	buf, err := stream.AppendEngineState(nil, st)
	if err != nil {
		return ClusterCloseReply{}, err
	}
	// Held until the commit (or the next close): drop the encoder's
	// size-estimate slack.
	export := append(make([]byte, 0, len(buf)), buf...)
	// Hold before any durable step: even if persistence fails, a retried
	// close must return this exact export rather than erroring on the
	// already-advanced window — the retry re-runs the durable steps
	// through the retry path above.
	s.clusterExport, s.clusterExportWindow = export, req.Window
	s.clusterExportDurable = false
	return ClusterCloseReply{State: export}, s.persistClusterCloseLocked()
}

// committedExportLocked serves a close retried after a durable worker
// committed its window, from the record the commit rewrote. The payload
// is read per retry and not held again; a record that fails its
// checksum or is not the committed record of window is refused with
// streamstore.ErrCorruptClusterClose, never re-exported. Callers must
// hold windowMu.
func (s *StreamServer) committedExportLocked(window int) (ClusterCloseReply, error) {
	cs, err := s.store.LoadClusterClose()
	if err == nil && (cs == nil || cs.Window != window || !cs.Committed) {
		err = fmt.Errorf("%w: no committed record of window %d", streamstore.ErrCorruptClusterClose, window)
	}
	if err != nil {
		return ClusterCloseReply{}, fmt.Errorf("crowd: retried cluster close of window %d: %w", window, err)
	}
	return ClusterCloseReply{State: cs.State}, nil
}

// persistClusterCloseLocked makes the held export durable — the
// export record first, so a crash right after it can still serve the
// retried close, then the advanced engine snapshot (a worker must never
// replay its journal across a close boundary). Idempotent and cheap to
// retry: the export writes once per window, the snapshot re-writes on
// retries only to cover a possibly re-advanced engine. Callers must
// hold windowMu.
func (s *StreamServer) persistClusterCloseLocked() error {
	if s.store == nil {
		return nil
	}
	if !s.clusterExportDurable {
		if err := s.store.SaveClusterClose(&streamstore.ClusterCloseState{
			Window:    s.clusterExportWindow,
			Committed: s.clusterCommitted >= s.clusterExportWindow,
			State:     s.clusterExport,
		}); err != nil {
			return fmt.Errorf("crowd: persist cluster close export: %w", err)
		}
		s.clusterExportDurable = true
	}
	if err := s.store.SnapshotEngine(s.engine); err != nil {
		return fmt.Errorf("crowd: snapshot after cluster close: %w", err)
	}
	return nil
}

// ClusterCommit applies the coordinator's merged carry weights for the
// users this worker owns, then runs the
// idle-user eviction the cluster close deferred. Idempotent: retrying
// re-applies the same values. On a durable worker the merged state is
// snapshotted BEFORE the close record is marked committed — a crash in
// between makes a booting coordinator re-drive the commit, which
// re-applies the same carries; the reverse order would let a
// committed-looking worker recover pre-commit carries and silently
// diverge. Once the committed record is on disk the worker lets go of
// its export bytes: the record serves any later retry of the close.
func (s *StreamServer) ClusterCommit(req ClusterCommitRequest) (ClusterCommitReply, error) {
	s.windowMu.Lock()
	defer s.windowMu.Unlock()
	if got := s.engine.Window(); got != req.Window {
		return ClusterCommitReply{}, fmt.Errorf("%w: cluster commit of window %d but worker has closed %d windows",
			ErrBadSubmission, req.Window, got)
	}
	if err := s.engine.CommitCarry(req.Carries); err != nil {
		if errors.Is(err, stream.ErrBadState) {
			// A carry the engine refuses is a bad request, not a worker fault.
			err = fmt.Errorf("%w: %w", ErrBadSubmission, err)
		}
		return ClusterCommitReply{}, err
	}
	if s.store != nil {
		if err := s.store.SnapshotEngine(s.engine); err != nil {
			return ClusterCommitReply{}, fmt.Errorf("crowd: snapshot after cluster commit: %w", err)
		}
		if s.clusterExport != nil && s.clusterExportWindow == req.Window {
			if err := s.store.SaveClusterClose(&streamstore.ClusterCloseState{
				Window:    req.Window,
				Committed: true,
				State:     s.clusterExport,
			}); err != nil {
				return ClusterCommitReply{}, fmt.Errorf("crowd: mark cluster close committed: %w", err)
			}
			s.clusterExport, s.clusterExportDurable = nil, true
		}
	}
	if req.Window > s.clusterCommitted {
		s.clusterCommitted = req.Window
	}
	return ClusterCommitReply{Window: req.Window}, nil
}

// ClusterStatus reports the worker's close-protocol position: closed
// windows, the window of its last close export (held or on disk), and
// the last committed window. A booting coordinator compares the latter
// two to detect an interrupted close round it must re-drive.
func (s *StreamServer) ClusterStatus() ClusterStatusReply {
	s.windowMu.Lock()
	defer s.windowMu.Unlock()
	return ClusterStatusReply{
		Window:          s.engine.Window(),
		PendingWindow:   s.clusterExportWindow,
		CommittedWindow: s.clusterCommitted,
	}
}

// RegisterCluster mounts the worker-side cluster RPC routes next to the
// streaming API. Only cluster workers mount these; a standalone node
// never does, so its window closes stay purely local.
func (s *StreamServer) RegisterCluster(mux *http.ServeMux) {
	mux.HandleFunc(PathClusterClose, route(http.MethodPost, s.handleClusterClose))
	mux.HandleFunc(PathClusterCommit, route(http.MethodPost, s.handleClusterCommit))
	mux.HandleFunc(PathClusterStatus, route(http.MethodGet, s.handleClusterStatus))
}

func (s *StreamServer) handleClusterClose(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBytes)
	var req ClusterCloseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, "decode cluster close", err)
		return
	}
	reply, err := s.ClusterClose(req)
	if err != nil {
		WriteAPIError(w, err)
		return
	}
	if reply.Empty {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", ContentTypeEngineState)
	_, _ = w.Write(reply.State)
}

func (s *StreamServer) handleClusterCommit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBytes)
	var req ClusterCommitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, "decode cluster commit", err)
		return
	}
	reply, err := s.ClusterCommit(req)
	if err != nil {
		WriteAPIError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, reply)
}

func (s *StreamServer) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.ClusterStatus())
}

// ClusterClose invokes the worker-side close RPC (coordinator use) and
// decodes the worker's export. A nil state and nil error is a probe's
// 204: the worker was empty and closed nothing. A reply in another
// content type (a worker predating the binary reply) or bytes that do not
// decode fail with stream.ErrBadStateEncoding.
func (c *Client) ClusterClose(ctx context.Context, req ClusterCloseRequest) (*stream.EngineState, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodPost, PathClusterClose, req, &raw); err != nil || raw == nil {
		return nil, err
	}
	return stream.DecodeEngineState(raw)
}

// ClusterCommit invokes the worker-side commit RPC (coordinator use).
func (c *Client) ClusterCommit(ctx context.Context, req ClusterCommitRequest) (ClusterCommitReply, error) {
	var reply ClusterCommitReply
	err := c.do(ctx, http.MethodPost, PathClusterCommit, req, &reply)
	return reply, err
}

// ClusterStatus reads the worker's close-protocol position (coordinator
// use, at boot).
func (c *Client) ClusterStatus(ctx context.Context) (ClusterStatusReply, error) {
	var reply ClusterStatusReply
	err := c.do(ctx, http.MethodGet, PathClusterStatus, nil, &reply)
	return reply, err
}
