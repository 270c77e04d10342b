package streamstore

import (
	"errors"
	"fmt"
	"path/filepath"
)

// Cluster-close durability: a worker participating in a coordinated
// cluster window close (internal/cluster) must be able to answer a
// retried close RPC for a window its engine already advanced past —
// across a crash, not just within one process lifetime. The worker
// therefore persists its per-window export alongside the engine
// snapshot (cluster-close.json, framed and atomically replaced like the
// snapshot; statefile.go has the byte layout),
// and flips the record's Committed flag once the coordinator's merged
// carries were applied and snapshotted. From then on the file is the
// worker's only copy of the export: a close retried after the commit
// reads the payload back through LoadClusterClose. On recovery an
// uncommitted record gives the worker its export back, and the
// Committed flag is how a rebooting coordinator distinguishes "window W
// closed and committed everywhere" from "window W closed but the
// merge/commit never finished" — the latter must be re-driven before
// serving, or every later window would estimate from stale carries.

const clusterCloseName = "cluster-close.json"

// ClusterCloseFileName is the cluster-close record's base name inside a
// state directory — exported for shippers, which (like the snapshot)
// must re-ship it even when the sink holds a same-size copy: the record
// is atomically rewritten each round, and a stale copy on a restored
// replica could wedge a retried close.
const ClusterCloseFileName = clusterCloseName

// ErrCorruptClusterClose reports a persisted cluster-close record that
// fails its integrity check. It is written atomically, so this means
// on-disk damage; neither recovery nor a retried close may silently
// continue from it, because a lost or altered export can wedge or
// corrupt a retried cluster close.
var ErrCorruptClusterClose = errors.New("streamstore: corrupt cluster close record")

// ClusterCloseState is one worker's durable record of its most recent
// coordinated cluster window close.
type ClusterCloseState struct {
	// Window is the 1-based window the export belongs to.
	Window int
	// Committed reports whether the coordinator's merged carries for
	// Window were applied (and snapshotted) on this worker. False means
	// the close round is still in flight: a coordinator booting against
	// this worker must finish the merge/commit before serving.
	Committed bool
	// State is the pre-close export served to close retries, encoded by
	// stream.AppendEngineState: the record's payload, byte for byte.
	State []byte
}

// SaveClusterClose atomically persists the worker's cluster-close
// record (same temp/fsync/rename/dir-fsync dance as the snapshot). Each
// close overwrites the previous record — only the latest window's
// export is ever needed, because the coordinator never reaches back
// past it.
func (s *Store) SaveClusterClose(cs *ClusterCloseState) error {
	if cs == nil || cs.State == nil {
		return errors.New("streamstore: nil cluster close state")
	}
	var committed int64
	if cs.Committed {
		committed = 1
	}
	file := sealStateFile(append(stateFileHeader(clusterCloseMagic, int64(cs.Window), committed, len(cs.State)), cs.State...))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return WriteFileAtomic(s.fs, s.dir, clusterCloseName, file)
}

// LoadClusterClose returns the persisted cluster-close record, or nil
// when this worker never served a coordinated close. State comes back
// checksum-verified but unparsed: the coordinator decodes it.
func (s *Store) LoadClusterClose() (*ClusterCloseState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	file, err := readFileIfExists(s.fs, filepath.Join(s.dir, clusterCloseName))
	if file == nil || err != nil {
		return nil, err
	}
	window, committed, payload, err := verifyStateFile(file, clusterCloseMagic)
	if err == nil && committed != 0 && committed != 1 {
		err = fmt.Errorf("committed flag %d", committed)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptClusterClose, err)
	}
	return &ClusterCloseState{Window: int(window), Committed: committed == 1, State: payload}, nil
}
