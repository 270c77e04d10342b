// Package streamstore persists the streaming truth-discovery engine's
// state so that privacy guarantees and estimator statistics survive
// process restarts. It keeps three artifacts in one state directory:
//
//   - an append-only journal of rolling segment files (journal-<seq>.wal):
//     one checksummed record per accepted submission, holding the
//     (user, window) epsilon charge and — with stream.Config.ClaimWAL —
//     the submission's claims, fsync'd before the engine acknowledges
//     the submission. Concurrent appends group-commit: the first
//     appender in becomes the batch leader and flushes everyone that
//     joined with a single write+fsync (see Options), so durable ingest
//     scales with concurrency instead of serializing on the disk.
//     Appends go to the active (highest-sequence) segment only; a
//     segment that outgrows Options.SegmentBytes is sealed — immutable
//     from then on — and a fresh one opened. The journal is the ground
//     truth between snapshots: a crash never loses an acknowledged
//     charge, nor (with the claim WAL) the statistics it paid for.
//
//   - a periodic engine snapshot (snapshot.json — the name is the
//     shipper's key and predates the format): the full
//     stream.EngineState (window counter, per-user carry weights and
//     budgets, decayed sufficient statistics) in the engine's compact
//     binary encoding behind a fixed header (magic, format version, the
//     JournalPos the export covers, payload length, and a CRC-32 over
//     header and payload; see statefile.go), written with a
//     write-temp / fsync / atomic-rename / fsync-dir sequence per the
//     Options cadence (every Nth window close and/or once the journal
//     outgrows a size bound; see MaybeSnapshotEngine). Compaction then
//     deletes the sealed segments the covered position subsumes —
//     O(segments), no surviving byte rewritten — and recovery skips the
//     covered prefix of the one boundary segment.
//
//   - the last published window result (result.json): the estimate the
//     last window close produced, written atomically like the snapshot,
//     so a restarted server can serve the previous truths immediately
//     instead of nothing until the next close.
//
//   - the user-spill file (users.spill): one checksummed record per
//     evicted user (carry weight, cumulative epsilon, estimator name),
//     written newest-wins by the engine's residency-cap eviction and
//     read back on re-admission; an in-memory offset index makes loads
//     one positioned read, and the file compacts by atomic rewrite
//     once dead records outweigh live ones. See spill.go.
//
// Recovery (Recover) restores the latest snapshot into a fresh engine,
// replays every journaled record past the snapshot's covered position
// (budgets always, claims when present — re-running any window closes
// the journal implies), and seeds the last published result. Replay is
// idempotent — records the snapshot already covers are skipped — so
// state recovers correctly from any crash point: journal older than,
// overlapping, or strictly newer than the snapshot, including a journal
// with no snapshot at all. A torn or corrupt journal tail (a crash
// mid-append) is detected by the per-record checksum and truncated
// away; a corrupt snapshot is an error, since the atomic rename means
// it can only arise from disk damage, not a crash.
//
// The journal segments and users.spill share one binary record framing
// — payload length, CRC-32, payload — and one torn-tail rule
// (journal.go). A pre-segmentation state directory (a single
// ledger.journal), one left by the retired batch campaign (batch.wal or
// batch-result.json, whatever their content), or one whose segments or
// spill are still the JSON lines earlier versions wrote, is refused on
// Open with ErrLegacyJournal rather than read, ignored or repaired, and
// so is one whose snapshot or cluster-close record is still JSON
// (ErrLegacySnapshot).
//
// All file I/O goes through a storefs.FS (Options.FS; the real
// filesystem by default), so crash points inside group commit, segment
// sealing, snapshot renames, and compaction are enumerable in tests via
// storefs.Faulty instead of reachable only by kill -9 timing. The
// advisory LOCK file alone stays on the real filesystem — flock is
// inter-process exclusion, which a simulated filesystem cannot provide.
package streamstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pptd/internal/obs"
	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

const (
	snapshotName      = "snapshot.json"
	resultName        = "result.json"
	legacyJournalName = "ledger.journal"
	lockName          = "LOCK"

	// envelopeVersion marks the JSON envelope around persisted window
	// results (the only files still enveloped; see statefile.go for the
	// snapshot's binary header).
	envelopeVersion = 1

	// maxBatch caps the records one group-commit batch may carry; later
	// appends start the next batch. It is large enough that the disk,
	// not the cap, paces ingest.
	maxBatch = 256

	// defaultSegmentBytes caps the active journal segment when
	// Options.SegmentBytes is zero: small enough that compaction deletes
	// segments promptly, large enough that a segment outlives many
	// group-commit batches.
	defaultSegmentBytes = 4 << 20
)

var (
	// ErrClosed reports use of a store after Close.
	ErrClosed = errors.New("streamstore: store closed")
	// ErrLocked reports a state directory already held by another live
	// store (usually another process).
	ErrLocked = errors.New("streamstore: state directory locked")
	// ErrCorruptSnapshot reports a snapshot whose header, checksum or
	// payload does not verify. Snapshots are written atomically, so this
	// means on-disk damage rather than an interrupted write; recovery
	// should not silently continue from it.
	ErrCorruptSnapshot = errors.New("streamstore: corrupt snapshot")
	// ErrCorruptResult reports a persisted window result that fails its
	// integrity check. Like the snapshot it is written atomically, so
	// this means on-disk damage; deleting result.json clears it at the
	// cost of serving no estimate until the next window close.
	ErrCorruptResult = errors.New("streamstore: corrupt result")
	// ErrLegacyJournal reports a state directory holding a journal this
	// version does not read: a pre-segmentation ledger.journal, the
	// retired batch campaign's batch.wal or batch-result.json, or a
	// journal segment or users.spill still in the JSON-line form that
	// preceded the binary record framing. Opening around the
	// file, or truncating it as a torn tail, would silently drop every
	// charge it records; the error names the file, untouched, so an
	// operator can decide what to do with it.
	ErrLegacyJournal = errors.New("streamstore: journal in a format this version does not read, refusing to ignore its privacy charges")
)

// Options tunes a store's durability/throughput trade-offs. The zero
// value is the sensible default: group commit with no added latency,
// 4 MiB journal segments, a snapshot at every window close, no retained
// generations.
type Options struct {
	// SegmentBytes caps the active journal segment: the first flush
	// that pushes it past the cap seals it and rolls to a fresh
	// segment, so one segment may exceed the cap by at most a batch.
	// Smaller segments mean finer-grained compaction (covered segments
	// are deleted whole, never rewritten) at the cost of more files.
	// Zero means 4 MiB.
	SegmentBytes int64
	// SnapshotEvery makes MaybeSnapshotEngine write a snapshot on every
	// Nth call (the server calls it once per window close) instead of
	// every one. Zero or one snapshots at every close. The journal —
	// and the claim WAL, when enabled — covers the windows in between.
	SnapshotEvery int
	// ResultHistory persists the last N published window results (one
	// result-<window>.json per close, atomically written like result.json
	// and pruned past the bound), so GET /v1/stream/truths?window=N keeps
	// answering for recent windows across a kill-and-recover. Zero or one
	// persists only the latest result, the pre-history behavior. A node
	// sets it to stream.HistoryWindows, the engine ring's depth —
	// persisting more is wasted disk, fewer means late readers lose
	// windows on restart.
	ResultHistory int
	// FS routes every file operation (journal segments, snapshots,
	// results — everything but the flock'd LOCK file) through the given
	// filesystem. Nil means the real one (storefs.OS). Tests inject
	// storefs.Faulty here to enumerate crash points deterministically.
	FS storefs.FS
	// Metrics, when non-nil, receives the store's pptd_store_* series
	// as scrape-time callbacks over the same counters Stats reads (one
	// source of truth for Stats and /metrics). The registry
	// must not already carry another store's collectors.
	Metrics *obs.Registry
}

func (o Options) validate() error {
	switch {
	case o.SegmentBytes < 0:
		return fmt.Errorf("streamstore: SegmentBytes = %d", o.SegmentBytes)
	case o.SnapshotEvery < 0:
		return fmt.Errorf("streamstore: SnapshotEvery = %d", o.SnapshotEvery)
	case o.ResultHistory < 0:
		return fmt.Errorf("streamstore: ResultHistory = %d", o.ResultHistory)
	}
	return nil
}

// Store is a durable state directory for one streaming engine. It
// implements stream.Ledger, so it can be wired directly into
// stream.Config.Ledger. Safe for concurrent use; concurrent appends
// coalesce into group-commit batches that share one fsync each.
type Store struct {
	dir  string
	opts Options
	fs   storefs.FS

	// commitMu guards the open group-commit batch; it is never held
	// across I/O, so joining a batch stays cheap under contention.
	commitMu sync.Mutex
	pending  *commitBatch

	mu   sync.Mutex
	lock *os.File

	// Segmented journal state: sealed (immutable, ascending seq) plus
	// the active segment appends go to. The active segment's records
	// end at activeSize; allocEnd is where its allocated space ends, the
	// bytes between read as zeros (see journalAllocChunk).
	sealed      []segmentInfo
	active      storefs.File
	activeSeq   int64
	activeSize  int64
	allocEnd    int64
	allocFailed bool

	// User-spill state (users.spill; see spill.go). spillMu is its own
	// lock so spills and loads never contend with group commit; lock
	// order is s.mu before spillMu. spill == nil means closed.
	spillMu          sync.Mutex
	spill            storefs.File
	spillSize        int64
	spillLive        int64
	spillIndex       map[string]spillRef
	userSpills       int64
	userLoads        int64
	spillCompactions int64

	// Observability counters. All cumulative and monotone — they back
	// the registered /metrics callbacks — with base marking the last
	// Stats(reset) boundary for the windowed view.
	journalSyncs        int64
	journalAppends      int64
	snapshots           int64
	resultsSaved        int64
	segmentsSealed      int64
	segmentsDeleted     int64
	batchSizes          obs.Histogram
	flushLatency        obs.Histogram
	base                statsBase
	closesSinceSnapshot int
	closed              bool
}

// Open creates (or reopens) the state directory with default Options.
// See OpenWith.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith creates (or reopens) the state directory and prepares the
// segmented ledger journal for appending: a directory holding a legacy
// journal (single-file or JSON lines) or a JSON-era snapshot is refused
// (ErrLegacyJournal, ErrLegacySnapshot), the highest-sequence segment
// becomes the active one, and any torn tail left by a crash mid-append
// is truncated away. The directory is guarded by an advisory lock (LOCK file, flock
// on unix, released automatically if the process dies): two processes
// sharing one state directory would silently overwrite each other's
// journal records, so a second concurrent Open fails with ErrLocked
// instead. Callers own the returned store and must Close it.
func OpenWith(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("streamstore: empty state directory")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = storefs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("streamstore: create state dir: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("streamstore: open lock file: %w", err)
	}
	if err := lockFile(lock); err != nil {
		_ = lock.Close()
		return nil, err
	}
	s := &Store{
		dir: dir, opts: opts, fs: fsys, lock: lock,
		batchSizes:   obs.NewHistogram(batchSizeBounds),
		flushLatency: obs.NewHistogram(flushLatencyBounds),
	}
	fail := func(err error) (*Store, error) {
		for _, f := range []storefs.File{s.active, s.spill} {
			if f != nil {
				_ = f.Close()
			}
		}
		_ = unlockFile(lock)
		_ = lock.Close()
		return nil, err
	}
	if err := s.refuseBatchFiles(); err != nil {
		return fail(err)
	}
	if err := s.openJournalLocked(); err != nil {
		return fail(err)
	}
	if err := s.openSpillLocked(); err != nil {
		return fail(err)
	}
	if opts.Metrics != nil {
		s.registerMetrics(opts.Metrics)
	}
	return s, nil
}

// refuseBatchFiles fails Open with ErrLegacyJournal, naming the file,
// when the directory holds the retired batch campaign's batch.wal or
// batch-result.json, whatever their content. It runs before anything is
// opened or repaired; there is no migration.
func (s *Store) refuseBatchFiles() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("streamstore: scan state dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); name == "batch.wal" || name == "batch-result.json" {
			return fmt.Errorf("%w: %s", ErrLegacyJournal, filepath.Join(s.dir, name))
		}
	}
	return nil
}

// Dir returns the state directory the store persists into.
func (s *Store) Dir() string { return s.dir }

// AppendCharge durably appends one privacy-ledger record: it returns
// only after the record is written and fsync'd, which is what lets the
// engine acknowledge the submission. Concurrent calls group-commit —
// one of them leads the batch and runs a single write+fsync for all —
// so the fsync cost amortizes across however many submissions are in
// flight. Implements stream.Ledger.
func (s *Store) AppendCharge(rec stream.ChargeRecord) error {
	return s.commit(rec)
}

// envelope wraps a serialized window or batch result with an integrity
// check: CRC32 is the IEEE checksum of the raw State bytes.
type envelope struct {
	Version int             `json:"version"`
	CRC32   string          `json:"crc32"`
	State   json.RawMessage `json:"state"`
}

// JournalPos returns the journal's current durable end position.
// Captured BEFORE an engine state export, it bounds the records that
// export is guaranteed to cover (a charge journaled before the capture
// was debited in-memory before the export quiesced the engine), which
// is what makes WriteSnapshot's segment compaction safe under
// concurrent ingestion.
func (s *Store) JournalPos() JournalPos {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JournalPos{Seq: s.activeSeq, Off: s.activeSize}
}

// SnapshotEngine persists the engine's current state through this store
// in the race-free order: journal position first, then the quiesced
// state export, then WriteSnapshot. Charges appended concurrently with
// the export land at or past the captured position and survive the
// segment compaction, so an acknowledged submission is never erased by
// a snapshot that predates it.
func (s *Store) SnapshotEngine(e *stream.Engine) error {
	covered := s.JournalPos()
	st, err := e.ExportState()
	if err != nil {
		return err
	}
	return s.WriteSnapshot(st, covered)
}

// MaybeSnapshotEngine applies the store's snapshot cadence: it counts
// one window close and snapshots the engine (SnapshotEngine) when the
// count reaches Options.SnapshotEvery. It reports whether a snapshot was
// attempted; a skipped close costs nothing beyond the counter. Skipping
// is safe exactly when the journal can reconstruct the skipped windows:
// budgets always can, statistics only with the claim WAL — without it a
// crash between snapshots falls back to losing post-snapshot claims
// (privacy-conservative, as before).
func (s *Store) MaybeSnapshotEngine(e *stream.Engine) (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	s.closesSinceSnapshot++
	every := s.opts.SnapshotEvery
	if every <= 0 {
		every = 1
	}
	due := s.closesSinceSnapshot >= every
	s.mu.Unlock()
	if !due {
		return false, nil
	}
	return true, s.SnapshotEngine(e)
}

// WriteSnapshot atomically replaces the on-disk snapshot with the given
// engine state: the file — its header carrying covered, the journal
// position captured before st was exported (see JournalPos;
// SnapshotEngine does the whole dance) — is written to a temporary file, fsync'd, renamed
// over the snapshot name, and the directory is fsync'd, so a crash at
// any point leaves either the old snapshot or the new one — never a
// partial file. After the snapshot is durable the journal is compacted: sealed segments at or before covered are
// deleted whole, records past it — which may postdate the export — are
// preserved untouched. If compaction is interrupted, replaying stale
// records is harmless because recovery replay is idempotent and skips
// everything before the snapshot's covered position.
func (s *Store) WriteSnapshot(st *stream.EngineState, covered JournalPos) error {
	if st == nil {
		return errors.New("streamstore: nil engine state")
	}
	// The payload is encoded once, straight into the file buffer.
	file, err := stream.AppendEngineState(stateFileHeader(snapshotMagic, covered.Seq, covered.Off, 0), st)
	if err != nil {
		return fmt.Errorf("streamstore: encode snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := WriteFileAtomic(s.fs, s.dir, snapshotName, sealStateFile(file)); err != nil {
		return err
	}
	s.snapshots++
	s.closesSinceSnapshot = 0
	return s.compactJournalLocked(covered)
}

// SaveResult atomically persists one window close's published result
// (same temp/fsync/rename/dir-fsync dance as the snapshot), so recovery
// can serve the previous estimate immediately instead of answering
// not-ready until the next close. With Options.ResultHistory > 1 the
// result is additionally filed as result-<window>.json and results older
// than the history bound are pruned, so recent windows stay answerable
// by number across a restart. Truths of uncovered objects are NaN in the
// engine, which JSON cannot carry; they are stored as zeros and restored
// from the Covered mask on load. The file is O(objects): per-user weights
// are not part of it (stream.WindowResult.Weights).
func (s *Store) SaveResult(res *stream.WindowResult) error {
	if res == nil {
		return errors.New("streamstore: nil window result")
	}
	cp := *res
	cp.Truths = make([]float64, len(res.Truths))
	for i, v := range res.Truths {
		if i < len(res.Covered) && res.Covered[i] {
			cp.Truths[i] = v
		}
	}
	body, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("streamstore: encode result: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.opts.ResultHistory > 1 {
		if err := s.writeEnvelopeLocked(resultHistoryName(res.Window), body); err != nil {
			return err
		}
		s.pruneResultHistoryLocked(res.Window)
	}
	if err := s.writeEnvelopeLocked(resultName, body); err != nil {
		return err
	}
	s.resultsSaved++
	return nil
}

// loadResultFileLocked reads, verifies, and decodes one persisted result
// file, restoring NaN for uncovered truths. Callers must hold s.mu.
func (s *Store) loadResultFileLocked(path string) (*stream.WindowResult, error) {
	body, err := readEnvelope(s.fs, path)
	if body == nil || err != nil {
		return nil, err
	}
	res := new(stream.WindowResult)
	if err := json.Unmarshal(body, res); err != nil {
		return nil, fmt.Errorf("%w: decode result: %v", ErrCorruptResult, err)
	}
	for i := range res.Truths {
		if i >= len(res.Covered) || !res.Covered[i] {
			res.Truths[i] = math.NaN()
		}
	}
	return res, nil
}

// resultHistoryName is the file name one retained window result is filed
// under (zero-padded so lexical order is window order).
func resultHistoryName(window int) string {
	return fmt.Sprintf("result-%09d.json", window)
}

// resultHistoryWindow parses a history file name back to its window,
// reporting false for files that are not history results. Anything may
// follow the ".json", so a leftover result-<window>.json.tmp counts too.
func resultHistoryWindow(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "result-")
	digits := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' })
	if !ok || digits <= 0 || !strings.HasPrefix(rest[digits:], ".json") {
		return 0, false
	}
	w, err := strconv.Atoi(rest[:digits])
	return w, err == nil
}

// pruneResultHistoryLocked removes history results at or below
// latest - ResultHistory. Pruning is best-effort: a leftover file costs
// disk, never correctness. Callers must hold s.mu.
func (s *Store) pruneResultHistoryLocked(latest int) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if w, ok := resultHistoryWindow(e.Name()); ok && w <= latest-s.opts.ResultHistory {
			_ = s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// LoadResultHistory returns every retained window result in ascending
// window order (empty when none were ever saved, e.g. a store without
// Options.ResultHistory). The latest result (result.json) is included
// even when it predates the history option being enabled. Individual
// history files that fail their integrity check are skipped — they are
// auxiliary read-side artifacts, and losing one old window must not
// block recovering the stream — while a corrupt latest result is still
// reported (ErrCorruptResult).
func (s *Store) LoadResultHistory() ([]*stream.WindowResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	byWindow := make(map[int]*stream.WindowResult)
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("streamstore: read state dir: %w", err)
	}
	for _, e := range entries {
		if _, ok := resultHistoryWindow(e.Name()); !ok {
			continue
		}
		res, err := s.loadResultFileLocked(filepath.Join(s.dir, e.Name()))
		if err != nil || res == nil {
			continue // auxiliary artifact: skip, recovery must not block
		}
		byWindow[res.Window] = res
	}
	latest, err := s.loadResultFileLocked(filepath.Join(s.dir, resultName))
	if err != nil {
		return nil, err
	}
	if latest != nil {
		byWindow[latest.Window] = latest
	}
	out := make([]*stream.WindowResult, 0, len(byWindow))
	for _, res := range byWindow {
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window < out[j].Window })
	return out, nil
}

// writeEnvelopeLocked writes a result payload under its checksummed JSON
// envelope (WriteFileAtomic). Callers must hold s.mu.
func (s *Store) writeEnvelopeLocked(name string, payload []byte) error {
	env, err := json.Marshal(envelope{
		Version: envelopeVersion,
		CRC32:   fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)),
		State:   payload,
	})
	if err != nil {
		return fmt.Errorf("streamstore: encode %s envelope: %w", name, err)
	}
	return WriteFileAtomic(s.fs, s.dir, name, env)
}

// WriteFileAtomic replaces dir/name with data through the
// temp/fsync/rename/dir-fsync sequence (the temp file is name+".tmp"),
// so a crash at any point leaves the old file or the new one, and the
// rename itself survives a power loss. The snapshot, the results and
// the cluster-close record are written through it, and so is a shipping
// sink's replica (cluster.DirSink). Two concurrent calls for one name
// share the temp file: callers serialize them.
func WriteFileAtomic(fsys storefs.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("streamstore: create %s temp: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("streamstore: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("streamstore: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("streamstore: close %s temp: %w", name, err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("streamstore: publish %s: %w", name, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("streamstore: sync dir %s: %w", dir, err)
	}
	return nil
}

// Recover restores everything the store persists into a freshly
// constructed engine: the latest snapshot (if any) via Engine.Restore,
// then the journal records past the snapshot's covered position
// replayed on top via Engine.ReplayJournal — budgets always; claims too
// when the records carry them (stream.Config.ClaimWAL), re-running any
// window closes the journal implies — then window closes that only the
// published result proves (Engine.ReplayClosesTo; a cadence-skipped
// snapshot leaves the last close with no journal trace), and finally
// the retained published window results via Engine.RestoreHistory, so
// the previous estimate — and, with Options.ResultHistory, recent
// windows by number — is servable immediately. It reports whether any
// persisted state was found; false means a fresh deployment.
func (s *Store) Recover(e *stream.Engine) (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	st, covered, err := s.loadSnapshotLocked()
	if err != nil {
		s.mu.Unlock()
		return false, err
	}
	recs, err := s.readJournalLocked(covered)
	if err != nil {
		s.mu.Unlock()
		return false, err
	}
	s.mu.Unlock()

	history, err := s.LoadResultHistory()
	if err != nil {
		return true, err
	}
	if st == nil && len(recs) == 0 && len(history) == 0 {
		return false, nil
	}
	if st != nil {
		if err := e.Restore(st); err != nil {
			return true, err
		}
	}
	if len(recs) > 0 {
		if _, err := e.ReplayJournal(recs); err != nil {
			return true, err
		}
	}
	if len(history) > 0 {
		// A close that no journal record postdates — snapshot skipped by
		// cadence, no traffic afterwards — is provable only through the
		// published result: fast-forward the window counter to it, so
		// the recovered engine does not re-open a window its users
		// already saw close.
		if err := e.ReplayClosesTo(history[len(history)-1].Window); err != nil {
			return true, err
		}
	}
	e.RestoreHistory(history)
	return true, nil
}

// loadSnapshotLocked reads and verifies the snapshot file, returning
// the engine state plus the journal position the snapshot covers. A nil
// state means no snapshot exists. Callers must hold s.mu.
func (s *Store) loadSnapshotLocked() (*stream.EngineState, JournalPos, error) {
	file, err := readFileIfExists(s.fs, filepath.Join(s.dir, snapshotName))
	if file == nil || err != nil {
		return nil, JournalPos{}, err
	}
	seq, off, payload, err := verifyStateFile(file, snapshotMagic)
	var st *stream.EngineState
	if err == nil {
		st, err = stream.DecodeEngineState(payload)
	}
	if err != nil {
		return nil, JournalPos{}, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return st, JournalPos{Seq: seq, Off: off}, nil
}

// readFileIfExists reads a whole file, returning nil bytes (and no
// error) only when it does not exist.
func readFileIfExists(fsys storefs.FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("streamstore: read %s: %w", filepath.Base(path), err)
	}
	if data == nil {
		data = []byte{} // an empty file is damage, not absence
	}
	return data, nil
}

// readEnvelope reads and integrity-checks one enveloped window result
// file, returning (nil, nil) when the file does not exist and wrapping
// verification failures in ErrCorruptResult.
func readEnvelope(fsys storefs.FS, path string) ([]byte, error) {
	data, err := readFileIfExists(fsys, path)
	if data == nil || err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptResult, err)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptResult, env.Version)
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(env.State)); got != env.CRC32 {
		return nil, fmt.Errorf("%w: checksum %s, want %s", ErrCorruptResult, got, env.CRC32)
	}
	return env.State, nil
}

// Close releases the journal handle and the directory lock. Appends and
// loads fail afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	err := s.active.Close()
	s.spillMu.Lock()
	if s.spill != nil {
		if serr := s.spill.Close(); err == nil {
			err = serr
		}
		s.spill = nil
	}
	s.spillMu.Unlock()
	if uerr := unlockFile(s.lock); err == nil {
		err = uerr
	}
	if cerr := s.lock.Close(); err == nil {
		err = cerr
	}
	return err
}
