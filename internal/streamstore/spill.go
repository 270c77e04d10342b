package streamstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"pptd/internal/stream"
)

// User-spill store: the durable home of evicted users (users.spill).
//
// When the engine runs under a residency cap
// (stream.Config.MaxResidentUsers), window close evicts idle users and
// hands their state here via SpillUsers before dropping it from memory.
// The spill record can then become the ONLY copy of a user's cumulative
// privacy spending — a later snapshot may compact away the journal
// segments holding their charges — so SpillUsers returns only after the
// records are written and fsync'd.
//
// The file uses the journal's record framing and torn-tail rule (see
// journal.go), one JSON stream.UserSpill per record: Open parses the
// longest valid prefix and truncates the rest, so a crash mid-spill
// costs at most the batch being written — whose users stayed resident,
// because eviction drops memory only after SpillUsers returns. Appends
// are newest-wins: an in-memory index (built at Open, maintained per
// append) maps each user ID to its latest record's offset, and LoadUser
// is one positioned read. Once dead records outweigh live ones the file
// is compacted by atomic rewrite (write temp, fsync, rename over,
// directory sync), the same dance as the snapshot.
//
// The spill file has its own mutex: spills and loads ride the admission
// and close paths and must not contend with the journal's group commit.
// Lock order is s.mu before s.spillMu; SpillUsers and LoadUser take
// only s.spillMu.

const (
	spillName    = "users.spill"
	spillTmpName = "users.spill.tmp"

	// spillCompactMinBytes keeps compaction from thrashing on tiny
	// files: below this size the dead-record overhead is noise.
	spillCompactMinBytes = 16 << 10
)

// spillRef locates one user's newest record inside users.spill: the
// record's byte offset and length (header included).
type spillRef struct {
	off int64
	n   int64
}

var _ stream.UserStore = (*Store)(nil)

// encodeSpill renders one spill record.
func encodeSpill(sp stream.UserSpill) ([]byte, error) {
	if sp.ID == "" {
		return nil, fmt.Errorf("streamstore: user spill with empty id")
	}
	payload, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("streamstore: encode user spill: %w", err)
	}
	return appendRecord(nil, payload)
}

// decodeSpill decodes one spill record's payload, reporting false on any
// damage.
func decodeSpill(payload []byte) (stream.UserSpill, bool) {
	var sp stream.UserSpill
	if err := json.Unmarshal(payload, &sp); err != nil || sp.ID == "" {
		return sp, false
	}
	return sp, true
}

// openSpillLocked brings the spill file up at Open time: it opens (or
// creates) users.spill, refuses a JSON-era one untouched
// (ErrLegacyJournal), builds the newest-wins offset index from the
// longest valid prefix, and truncates any torn tail a crash mid-spill
// left. Called from OpenWith under s.mu.
func (s *Store) openSpillLocked() error {
	path := filepath.Join(s.dir, spillName)
	_, statErr := s.fs.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("streamstore: open user spill file: %w", err)
	}
	if created {
		if err := s.fs.SyncDir(s.dir); err != nil {
			_ = f.Close()
			return fmt.Errorf("streamstore: sync state dir: %w", err)
		}
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
	index := make(map[string]spillRef)
	var live int64
	valid := eachRecord(data, func(payload []byte, off int) bool {
		sp, ok := decodeSpill(payload)
		if !ok {
			return false
		}
		ref := spillRef{off: int64(off), n: int64(recordHeaderLen + len(payload))}
		if old, dup := index[sp.ID]; dup {
			live -= old.n
		}
		index[sp.ID] = ref
		live += ref.n
		return true
	})
	if int64(len(data)) > valid {
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return fmt.Errorf("streamstore: repair user spill tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("streamstore: sync repaired user spill: %w", err)
		}
	}
	s.spill = f
	s.spillSize = valid
	s.spillLive = live
	s.spillIndex = index
	return nil
}

// SpillUsers durably appends one record per evicted user and returns
// only once they are fsync'd — the engine drops the in-memory state
// right after, and from then on the spill record may be the only copy
// of the user's budget. All records share one write+fsync. On failure
// the file is truncated back to its durable size and the index is left
// untouched, so the eviction aborts cleanly (the users stay resident).
// Implements stream.UserStore.
func (s *Store) SpillUsers(users []stream.UserSpill) error {
	if len(users) == 0 {
		return nil
	}
	type pending struct {
		id  string
		ref spillRef
	}
	var buf []byte
	refs := make([]pending, 0, len(users))
	for _, sp := range users {
		line, err := encodeSpill(sp)
		if err != nil {
			return err
		}
		refs = append(refs, pending{id: sp.ID, ref: spillRef{off: int64(len(buf)), n: int64(len(line))}})
		buf = append(buf, line...)
	}

	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	if s.spill == nil {
		return ErrClosed
	}
	base := s.spillSize
	if _, err := s.spill.WriteAt(buf, base); err != nil {
		_ = s.spill.Truncate(base)
		return fmt.Errorf("streamstore: append user spill: %w", err)
	}
	if err := s.spill.Sync(); err != nil {
		_ = s.spill.Truncate(base)
		return fmt.Errorf("streamstore: sync user spill: %w", err)
	}
	s.spillSize += int64(len(buf))
	for _, p := range refs {
		if old, dup := s.spillIndex[p.id]; dup {
			s.spillLive -= old.n
		}
		s.spillIndex[p.id] = spillRef{off: base + p.ref.off, n: p.ref.n}
		s.spillLive += p.ref.n
	}
	s.userSpills += int64(len(users))
	// Housekeeping, never durability: the records above are already
	// safe in the un-compacted file, so a failed compaction must not
	// fail the eviction that triggered it.
	if s.spillSize >= spillCompactMinBytes && s.spillSize >= 2*s.spillLive {
		_ = s.compactSpillLocked()
	}
	return nil
}

// LoadUser returns the newest spill record for one user, or false when
// the user was never spilled. One positioned read through the offset
// index; no scan. Implements stream.UserStore.
func (s *Store) LoadUser(id string) (*stream.UserSpill, bool, error) {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	if s.spill == nil {
		return nil, false, ErrClosed
	}
	ref, ok := s.spillIndex[id]
	if !ok {
		return nil, false, nil
	}
	rec := make([]byte, ref.n)
	if _, err := s.spill.ReadAt(rec, ref.off); err != nil {
		return nil, false, fmt.Errorf("streamstore: read user spill: %w", err)
	}
	payload, n := splitRecord(rec)
	sp, valid := decodeSpill(payload)
	if n != len(rec) || !valid {
		return nil, false, fmt.Errorf("streamstore: user spill record for %q is corrupt", id)
	}
	s.userLoads++
	return &sp, true, nil
}

// SpilledUsers returns how many distinct users currently live in the
// spill store (a gauge; re-admission does not remove a record — the
// next eviction overwrites it).
func (s *Store) SpilledUsers() int {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	return len(s.spillIndex)
}

// compactSpillLocked rewrites users.spill down to one newest record per
// user: the live records are copied (in sorted ID order, so the output is
// deterministic) into a temp file, fsync'd, and renamed over the live
// name with a directory sync — the open temp handle survives the rename
// and becomes the new spill handle, so there is no window where the
// store holds no usable file. Every failure path keeps the old file,
// handle, and index fully intact. A crash at any point leaves either
// the old file (all records, dead ones included) or the new one; both
// recover identically. Callers must hold s.spillMu.
func (s *Store) compactSpillLocked() error {
	data, err := s.readSegmentLocked(s.spill)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(s.spillIndex))
	for id := range s.spillIndex {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf []byte
	index := make(map[string]spillRef, len(ids))
	for _, id := range ids {
		ref := s.spillIndex[id]
		if ref.off+ref.n > int64(len(data)) {
			return fmt.Errorf("streamstore: user spill index out of bounds for %q", id)
		}
		index[id] = spillRef{off: int64(len(buf)), n: ref.n}
		buf = append(buf, data[ref.off:ref.off+ref.n]...)
	}

	tmp := filepath.Join(s.dir, spillTmpName)
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("streamstore: create user spill temp: %w", err)
	}
	abort := func(e error) error {
		_ = f.Close()
		_ = s.fs.Remove(tmp)
		return e
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return abort(fmt.Errorf("streamstore: write compacted user spill: %w", err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("streamstore: sync compacted user spill: %w", err))
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, spillName)); err != nil {
		return abort(fmt.Errorf("streamstore: publish compacted user spill: %w", err))
	}
	// Best-effort: if the rename has not hit the directory yet, a crash
	// recovers from the old file, which holds every live record too.
	_ = s.fs.SyncDir(s.dir)
	old := s.spill
	s.spill = f
	s.spillSize = int64(len(buf))
	s.spillLive = int64(len(buf))
	s.spillIndex = index
	s.spillCompactions++
	_ = old.Close()
	return nil
}
