package streamstore

import (
	"fmt"
	"os"
	"path/filepath"

	"pptd/internal/stream"
)

// Batch-campaign persistence: the collect-then-aggregate flow's durable
// leg (batch.wal + batch-result.json).
//
// The batch campaign acknowledges each submission once and aggregates
// exactly once, so its durability needs are simpler than the stream's:
// every accepted submission is appended to batch.wal and fsync'd before
// the acknowledgement — one record in the journal's framing, under its
// torn-tail rule (journal.go), whose payload is the claim frame's
// (stream.AppendSubmission) — and the aggregated result is persisted
// atomically like the stream's window result. Recovery replays the WAL
// into a fresh campaign server and reloads the published result, so a
// restarted node neither forgets who already submitted (the duplicate
// guard keeps holding) nor re-opens an aggregated campaign.
//
// The WAL is created lazily on the first append: a stream-only state
// directory never grows a batch.wal. Records are neutral — client ID
// plus claims — because this package sits below the wire layer.

const (
	batchWALName       = "batch.wal"
	batchResultName    = "batch-result.json"
	batchResultTmpName = "batch-result.json.tmp"
)

// BatchSubmission is one durable batch-campaign submission: the
// client's ID and their perturbed claims, exactly as accepted.
type BatchSubmission struct {
	ClientID string         `json:"clientId"`
	Claims   []stream.Claim `json:"claims"`
}

// parseBatchWAL decodes the WAL's longest valid prefix, returning its
// submissions in append order and its byte length. A record with an
// empty client ID is damage: AppendBatchSubmission never writes one.
func parseBatchWAL(data []byte) ([]BatchSubmission, int64) {
	var subs []BatchSubmission
	valid := eachRecord(data, func(payload []byte, _ int) bool {
		id, claims, err := stream.DecodeSubmission(payload, nil)
		if err != nil || len(id) == 0 {
			return false
		}
		subs = append(subs, BatchSubmission{ClientID: string(id), Claims: claims})
		return true
	})
	return subs, valid
}

// openBatchLocked repairs an existing batch WAL at Open time (torn-tail
// truncation, durable size), refusing a JSON-era one untouched
// (ErrLegacyJournal). A directory without one stays without one until
// the first append. Called from OpenWith under s.mu.
func (s *Store) openBatchLocked() error {
	path := filepath.Join(s.dir, batchWALName)
	if _, err := s.fs.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil // lazy: created by the first AppendBatchSubmission
		}
		return fmt.Errorf("streamstore: stat batch wal: %w", err)
	}
	f, err := s.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("streamstore: open batch wal: %w", err)
	}
	data, err := s.readSegmentLocked(f)
	if err != nil {
		_ = f.Close()
		return err
	}
	if legacyRecordFile(data) {
		_ = f.Close()
		return fmt.Errorf("%w: %s", ErrLegacyJournal, path)
	}
	_, valid := parseBatchWAL(data)
	if int64(len(data)) > valid {
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return fmt.Errorf("streamstore: repair batch wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("streamstore: sync repaired batch wal: %w", err)
		}
	}
	s.batch = f
	s.batchSize = valid
	return nil
}

// AppendBatchSubmission durably appends one accepted batch submission:
// it returns only after the record is written and fsync'd, which is
// what lets the campaign server acknowledge the submission. On failure
// the WAL is truncated back to its durable size and the submission must
// not be acknowledged.
func (s *Store) AppendBatchSubmission(sub BatchSubmission) error {
	if sub.ClientID == "" {
		return fmt.Errorf("streamstore: batch submission with empty client id")
	}
	line, err := appendRecord(nil, stream.AppendSubmission(nil, sub.ClientID, sub.Claims))
	if err != nil {
		return err
	}
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.batchClosed {
		return ErrClosed
	}
	if s.batch == nil {
		f, err := s.fs.OpenFile(filepath.Join(s.dir, batchWALName), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("streamstore: create batch wal: %w", err)
		}
		// The new name must be durable before any record in it is: a
		// crash after an acked append must not lose the whole file.
		if err := s.fs.SyncDir(s.dir); err != nil {
			_ = f.Close()
			_ = s.fs.Remove(filepath.Join(s.dir, batchWALName))
			return fmt.Errorf("streamstore: sync state dir: %w", err)
		}
		s.batch = f
		s.batchSize = 0
	}
	if _, err := s.batch.WriteAt(line, s.batchSize); err != nil {
		_ = s.batch.Truncate(s.batchSize)
		return fmt.Errorf("streamstore: append batch submission: %w", err)
	}
	if err := s.batch.Sync(); err != nil {
		_ = s.batch.Truncate(s.batchSize)
		return fmt.Errorf("streamstore: sync batch wal: %w", err)
	}
	s.batchSize += int64(len(line))
	s.batchAppends++
	return nil
}

// LoadBatchSubmissions returns every durable batch submission in append
// (acknowledgement) order; nil when the directory holds no batch WAL.
func (s *Store) LoadBatchSubmissions() ([]BatchSubmission, error) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.batchClosed {
		return nil, ErrClosed
	}
	if s.batch == nil {
		return nil, nil
	}
	data, err := s.readSegmentLocked(s.batch)
	if err != nil {
		return nil, err
	}
	subs, _ := parseBatchWAL(data)
	return subs, nil
}

// SaveBatchResult atomically persists the aggregated batch result (an
// opaque payload — the campaign server owns its wire shape) with the
// same temp/fsync/rename/dir-fsync dance as the stream's window result.
// The server persists before publishing: a result a client ever saw
// survives any crash after.
func (s *Store) SaveBatchResult(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("streamstore: empty batch result")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.writeEnvelopeLocked("batch result", batchResultName, batchResultTmpName, payload); err != nil {
		return err
	}
	s.resultsSaved++
	return nil
}

// LoadBatchResult returns the persisted aggregated result payload, or
// nil when the campaign never aggregated. Corruption (possible only
// from on-disk damage — the write is atomic) fails with
// ErrCorruptResult.
func (s *Store) LoadBatchResult() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return readEnvelope(s.fs, filepath.Join(s.dir, batchResultName))
}
