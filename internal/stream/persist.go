package stream

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// ErrBadState reports an EngineState that cannot be restored: it is
// internally inconsistent, references unknown users or out-of-range
// objects, or the target engine already holds state.
var ErrBadState = errors.New("stream: invalid engine state")

// ErrEstimatorMismatch reports a Restore of an EngineState written by a
// different estimator than the engine is configured to run. Carry
// weights are not interchangeable (CRH's are log-ratios, GTM's are
// precisions 1/σ², ...), so restoring across estimators would
// silently misfold the statistics; the engine refuses instead. Recover
// with the estimator that wrote the snapshot, or discard it.
var ErrEstimatorMismatch = errors.New("stream: snapshot estimator mismatch")

// ErrLedger reports a failed durable append to the configured privacy
// ledger. The submission that triggered it was NOT accepted and the
// in-memory charge was rolled back: the engine never acknowledges a
// release whose ledger record is not on disk.
var ErrLedger = errors.New("stream: privacy ledger append failed")

// ChargeRecord is one privacy-ledger entry: user was charged Epsilon for
// participating in the (0-based) open window Window. The journal of
// these records is what makes cumulative budgets survive a crash between
// snapshots. With Config.ClaimWAL enabled the record also carries the
// submission's perturbed claims, so one durable append covers both the
// charge and the statistics it paid for — recovery then replays the
// whole submission (ReplayJournal) instead of just its debit.
type ChargeRecord struct {
	User    string  `json:"user"`
	Window  int     `json:"window"`
	Epsilon float64 `json:"epsilon"`
	Claims  []Claim `json:"claims,omitempty"`
}

// Ledger is the durable privacy ledger the engine appends to when
// configured (Config.Ledger). AppendCharge is called once per accepted
// (user, window) charge and must not return until the record is durable:
// Ingest only acknowledges a submission after the append succeeds, and
// rolls the in-memory charge back if it fails. Implementations must be
// safe for concurrent use; internal/streamstore provides the standard
// fsync'd file journal.
type Ledger interface {
	AppendCharge(rec ChargeRecord) error
}

// UserSpill is one evicted user's durable state: everything the engine
// needs to re-admit them as if they had never left — the carry weight
// warm-starting their next window and the cumulative privacy spending
// that keeps an exhausted user exhausted. Spill records are written by
// eviction (Config.MaxResidentUsers) before the in-memory state is
// dropped and read back by admission; the newest record per user wins.
type UserSpill struct {
	UserSnapshot
	// Estimator names the estimator whose carry the record holds ("" on
	// records predating the field = CRH); admission under a different
	// estimator fails with ErrEstimatorMismatch.
	Estimator string `json:"estimator,omitempty"`
}

// validateUser rejects one user's persisted bookkeeping the engine must
// not restore or re-admit.
func validateUser(u *UserSnapshot) error {
	switch {
	case u.ID == "":
		return fmt.Errorf("%w: user with empty id", ErrBadState)
	case !finite(u.Carry) || u.Carry < 0:
		return fmt.Errorf("%w: user %q carry = %v", ErrBadState, u.ID, u.Carry)
	case !finite(u.CumulativeEpsilon) || u.CumulativeEpsilon < 0:
		return fmt.Errorf("%w: user %q cumulative epsilon = %v", ErrBadState, u.ID, u.CumulativeEpsilon)
	case u.LastWindow < -1 || u.LastWindow > maxWindow || u.Windows < 0 || u.Windows > math.MaxInt32:
		return fmt.Errorf("%w: user %q lastWindow=%d windows=%d", ErrBadState, u.ID, u.LastWindow, u.Windows)
	}
	return nil
}

// UserStore is the durable spill store behind Config.UserStore.
// SpillUsers must not return until every record is durable — eviction
// drops the in-memory state right after, and a later snapshot may let
// the journal holding the user's charges be compacted away, leaving the
// spill record the only copy of their budget. LoadUser returns the
// newest record for a user (false when never spilled). Implementations
// must be safe for concurrent use; internal/streamstore provides the
// standard file-backed one next to the charge journal.
type UserStore interface {
	SpillUsers(users []UserSpill) error
	LoadUser(id string) (*UserSpill, bool, error)
}

// UserSnapshot is one user's persisted bookkeeping: the carried weight
// warm-starting the next window and the cumulative privacy spending.
type UserSnapshot struct {
	ID string `json:"id"`
	// Carry is the weight carried into the next window's estimation.
	Carry float64 `json:"carry"`
	// CumulativeEpsilon is the total epsilon charged so far.
	CumulativeEpsilon float64 `json:"cumulativeEpsilon"`
	// LastWindow is the 0-based index of the last window the user was
	// charged for (-1 if never charged).
	LastWindow int `json:"lastWindow"`
	// Windows is the number of windows the user was charged for.
	Windows int `json:"windows"`
}

// StatSnapshot is one persisted (object, user) sufficient statistic:
// the decayed sum of claimed values and the decayed claim mass.
type StatSnapshot struct {
	Object int     `json:"object"`
	User   string  `json:"user"`
	Sum    float64 `json:"sum"`
	Mass   float64 `json:"mass"`
}

// EngineState is a point-in-time export of everything a streaming engine
// needs to resume after a restart: the window counter, claim counters,
// every user's carry weight and budget state, and the live sufficient
// statistics. It is a plain serializable value with deterministic
// ordering (users by registration order, stats by (object, user)).
type EngineState struct {
	// NumObjects records the object space the state was exported from;
	// a restore only requires the target engine to cover every object
	// actually present in Stats, so the space may grow across restarts.
	NumObjects int `json:"numObjects"`
	// Window is the number of closed windows (equivalently the 0-based
	// index of the open window) at export time.
	Window int `json:"window"`
	// WindowClaims counts claims ingested into the open window so far;
	// TotalClaims counts the whole stream.
	WindowClaims int64 `json:"windowClaims"`
	TotalClaims  int64 `json:"totalClaims"`
	// Users holds per-user carry and budget state in registration order.
	Users []UserSnapshot `json:"users"`
	// Stats holds the live sufficient statistics.
	Stats []StatSnapshot `json:"stats"`
	// Estimator names the estimator that produced this state ("crh",
	// "gtm", "catd"); empty on states exported before estimators were
	// pluggable, which were always CRH. Restore refuses a state whose
	// estimator differs from the engine's (ErrEstimatorMismatch).
	Estimator string `json:"estimator,omitempty"`
}

// ExportState captures a consistent point-in-time state of the engine:
// it quiesces ingestion (taking the window lock exclusively and pausing
// the shards) and copies the window counter, claim counters, user
// registry, and every live sufficient statistic. The returned state is
// independent of the engine and safe to serialize.
func (e *Engine) ExportState() (*EngineState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	release := e.pauseShards()
	defer close(release)
	return e.exportStateLocked(), nil
}

// exportStateLocked builds the state export. Callers must hold e.mu
// exclusively with the shards paused (ExportState and the cluster-close
// path CloseWindowExport both funnel through here).
func (e *Engine) exportStateLocked() *EngineState {
	return &EngineState{
		NumObjects:   e.cfg.NumObjects,
		Window:       e.window,
		WindowClaims: e.windowClaims.Load(),
		TotalClaims:  e.totalClaims.Load(),
		Users:        e.users.export(),
		Stats:        e.exportStatsLocked(e.users.ids()),
		Estimator:    e.cfg.Estimator,
	}
}

// exportStatsLocked copies every live statistic out in the canonical
// (object, user ID) order without comparing a string per statistic. The
// resident slots are sorted by ID once (the only string sort); one pass
// over the rows counts each object's statistics, which fixes where the
// object's segment of the output starts, and a second pass, taking the
// slots in ID order, writes every cell straight into its object's
// segment — linear in statistics + slots + objects however sparse the
// coverage. ids is the slot-indexed ID table (free slots are "", and
// their rows are empty). Same preconditions as exportStateLocked.
func (e *Engine) exportStatsLocked(ids []string) []StatSnapshot {
	// next[obj] is where object obj's next statistic lands in out.
	next := make([]int, e.cfg.NumObjects)
	for _, s := range e.shards {
		for _, r := range s.rows {
			for off := 0; off < len(r); off += cellSize {
				next[r.object(off)]++
			}
		}
	}
	total := 0
	for obj, n := range next {
		next[obj] = total
		total += n
	}
	if total == 0 {
		return nil
	}
	out := make([]StatSnapshot, total)
	for _, slot := range slotsByID(ids) {
		for _, s := range e.shards {
			r := s.row(slot)
			for off := 0; off < len(r); off += cellSize {
				c := r.at(off)
				out[next[c.object]] = StatSnapshot{Object: c.object, User: ids[slot], Sum: c.sum, Mass: c.mass}
				next[c.object]++
			}
		}
	}
	return out
}

// slotsByID returns the slot indices in ascending order of their IDs.
func slotsByID(ids []string) []int {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(ids[a], ids[b]) })
	return order
}

// Restore loads an exported state into a freshly constructed engine
// (before any ingestion): the user registry, budget spending, carry
// weights, window counter, and sufficient statistics all resume exactly
// where the export left off, so the next closed window matches what the
// uninterrupted engine would have produced over the same claims. The
// shard count may differ from the exporting engine's — statistics are
// re-partitioned — and the open window resumes at the exported counter,
// advanced past any journal-replayed charge so duplicate-submission
// checks keep holding after recovery.
//
// The last closed window's published result is not part of the state:
// Snapshot returns nil after a restore until the next window closes,
// unless the caller seeds persisted results with RestoreHistory.
func (e *Engine) Restore(st *EngineState) error {
	if st == nil {
		return fmt.Errorf("%w: nil state", ErrBadState)
	}
	if err := validateState(st, e.cfg.NumObjects); err != nil {
		return err
	}
	// A state is only meaningful to the estimator that wrote it: carry
	// weights encode algorithm-specific quantities.
	// Legacy states (exported before estimators were pluggable) were
	// always CRH.
	written := st.Estimator
	if written == "" {
		written = EstimatorCRH
	}
	if written != e.cfg.Estimator {
		return fmt.Errorf("%w: state written by %q, engine configured for %q — restore with the matching estimator or discard the snapshot",
			ErrEstimatorMismatch, written, e.cfg.Estimator)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if e.window != 0 || e.totalClaims.Load() != 0 || e.users.count() != 0 {
		return fmt.Errorf("%w: engine already holds state", ErrBadState)
	}
	byID := make(map[string]int, len(st.Users))
	for i, u := range st.Users {
		byID[u.ID] = i
	}
	if err := e.users.restore(st.Users); err != nil {
		return err
	}

	release := e.pauseShards()
	defer close(release)
	// Count every (shard, slot)'s statistics first, so each row is
	// allocated once at its exact size rather than grown one put at a time.
	// Slots are the indices into st.Users, as restore numbered them.
	counts := make([][]int, len(e.shards))
	for i := range counts {
		counts[i] = make([]int, len(st.Users))
	}
	statCount := make([]int, len(st.Users))
	for _, sn := range st.Stats {
		// The user is known and the pair unique: validated above.
		slot := byID[sn.User]
		counts[sn.Object%len(e.shards)][slot]++
		statCount[slot]++
	}
	for i, s := range e.shards {
		s.reserve(counts[i])
	}
	for _, sn := range st.Stats {
		e.shards[sn.Object%len(e.shards)].put(byID[sn.User], cell{object: sn.Object, sum: sn.Sum, mass: sn.Mass})
	}

	// Resume at the exported open window, or past it if journal replay
	// recorded charges for later windows than the snapshot knew about
	// (the charge proves the release happened; re-admitting its user
	// into an earlier window would break the duplicate guard).
	e.window = st.Window
	for _, u := range st.Users {
		if u.LastWindow > e.window {
			e.window = u.LastWindow
		}
	}
	e.windowClaims.Store(st.WindowClaims)
	e.totalClaims.Store(st.TotalClaims)
	// The users the state holds statistics for are the ones the last close
	// estimated: stamp their carries so WeightsAt answers for that window.
	e.users.updateCarry(e.users.carryWeights(false), statCount, e.window)
	return nil
}

// ReplayJournal folds journaled submissions into a restored (or fresh)
// engine during recovery. Charges debit budgets idempotently — a record
// for a window the user was already charged for (covered by the snapshot
// or an earlier record) is skipped — and, for records carrying claims
// (Config.ClaimWAL), the claims are folded back into the sufficient
// statistics. When the journal names a window past the engine's open
// one, every intermediate window close is re-run (estimation plus decay,
// results discarded), so carry weights and decayed statistics advance
// exactly as they did before the crash and the recovered engine matches
// an uninterrupted one over the same claims.
//
// Records must be in journal (append) order; window indices never move
// backwards across it because appends are acknowledged before a close
// can begin. Replay never touches the configured Ledger — the records
// being replayed are already durable. It returns the number of records
// applied. A record whose claims no longer fit the engine (out-of-range
// object, non-finite value) fails with ErrBadState.
func (e *Engine) ReplayJournal(recs []ChargeRecord) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrEngineClosed
	}
	release := e.pauseShards()
	defer close(release)

	applied := 0
	perShard := make([][]Claim, len(e.shards))
	for i, rec := range recs {
		if rec.User == "" || rec.Window < 0 ||
			rec.Epsilon <= 0 || math.IsNaN(rec.Epsilon) || math.IsInf(rec.Epsilon, 0) {
			continue
		}
		if rec.Window > maxWindow {
			return applied, fmt.Errorf("%w: journal record %d: window %d beyond %d",
				ErrBadState, i, rec.Window, maxWindow)
		}
		for _, c := range rec.Claims {
			if c.Object < 0 || c.Object >= e.cfg.NumObjects {
				return applied, fmt.Errorf("%w: journal record %d: object %d of %d",
					ErrBadState, i, c.Object, e.cfg.NumObjects)
			}
			if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
				return applied, fmt.Errorf("%w: journal record %d: non-finite value for object %d",
					ErrBadState, i, c.Object)
			}
		}
		// Admission during replay consults the spill store like live
		// ingestion does: a user evicted before the crash whose charges
		// were compacted away behind a snapshot exists only as a spill
		// record, and recreating them bare would reset their budget.
		ref, _, _, err := e.admit(rec.User)
		if err != nil {
			return applied, err
		}
		if !e.users.replayCharge(ref, rec.Window, rec.Epsilon) {
			continue // already accounted by the snapshot or an earlier record
		}
		for rec.Window > e.window {
			e.replayCloseLocked()
		}
		if len(rec.Claims) > 0 {
			// Partition by owning shard as Ingest does and fold straight
			// into the rows: the shards are paused.
			for i := range perShard {
				perShard[i] = perShard[i][:0]
			}
			for _, c := range rec.Claims {
				idx := c.Object % len(e.shards)
				perShard[idx] = append(perShard[idx], c)
			}
			for i, part := range perShard {
				if len(part) > 0 {
					e.shards[i].apply(int(ref.slot), part)
				}
			}
			e.windowClaims.Add(int64(len(rec.Claims)))
			e.totalClaims.Add(int64(len(rec.Claims)))
		}
		applied++
	}
	return applied, nil
}

// ReplayClosesTo re-runs window closes until the engine has target
// closed windows, exactly as replay does between journal records. It is
// the recovery step for closes that no journal record postdates: with a
// snapshot cadence coarser than every close, the only durable trace of
// the last pre-crash close can be the published result itself, and
// without this fast-forward the recovered engine would re-open an
// already-closed window — rejecting returning users as duplicates and
// regressing the public window numbering. A target at or below the
// current counter is a no-op.
func (e *Engine) ReplayClosesTo(target int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if target <= e.window {
		return nil
	}
	if target > maxWindow {
		return fmt.Errorf("%w: window %d beyond %d", ErrBadState, target, maxWindow)
	}
	release := e.pauseShards()
	defer close(release)
	for e.window < target {
		e.replayCloseLocked()
	}
	return nil
}

// replayCloseLocked re-runs one window close during journal replay: the
// estimation (whose result was already published before the crash) and
// the decay are recomputed so carry weights and statistics advance
// exactly as they did live; the result itself is discarded. A close the
// journal implies but whose claims were never journaled (ClaimWAL off,
// or an empty engine) still advances the window counter. Callers must
// hold e.mu exclusively with the shards paused.
func (e *Engine) replayCloseLocked() {
	// The only estimation error is ErrEmptyWindow (no live statistics) —
	// the journal still proves the window advanced, so the counter does.
	_, _ = e.estimateLocked()
	if e.cfg.Decay < 1 {
		e.eachShardParallel(func(s *shard) { s.decay(e.cfg.Decay) })
	}
	e.window++
	e.windowClaims.Store(0)
	// Replayed closes evict exactly as live closes do, so recovery of a
	// long journal stays within the residency caps too; mid-replay
	// re-spills rewrite records identical to the pre-crash ones.
	e.evictIdleLocked()
}

// validateState checks an EngineState before restoring into an engine
// with numObjects objects.
func validateState(st *EngineState, numObjects int) error {
	if st.Window < 0 || st.Window > maxWindow || st.WindowClaims < 0 || st.TotalClaims < 0 {
		return fmt.Errorf("%w: counters out of range (window=%d windowClaims=%d totalClaims=%d)",
			ErrBadState, st.Window, st.WindowClaims, st.TotalClaims)
	}
	seen := make(map[string]struct{}, len(st.Users))
	for i := range st.Users {
		u := &st.Users[i]
		if err := validateUser(u); err != nil {
			return err
		}
		if _, dup := seen[u.ID]; dup {
			return fmt.Errorf("%w: duplicate user %q", ErrBadState, u.ID)
		}
		seen[u.ID] = struct{}{}
	}
	canonical := true
	for i := range st.Stats {
		sn := &st.Stats[i]
		switch {
		case sn.Object < 0 || sn.Object >= numObjects:
			return fmt.Errorf("%w: stat object %d of %d", ErrBadState, sn.Object, numObjects)
		case !finite(sn.Sum) || !finite(sn.Mass) || sn.Mass <= 0:
			return fmt.Errorf("%w: stat (%d, %q) sum=%v mass=%v", ErrBadState, sn.Object, sn.User, sn.Sum, sn.Mass)
		}
		if _, ok := seen[sn.User]; !ok {
			return fmt.Errorf("%w: stat for unknown user %q", ErrBadState, sn.User)
		}
		if i > 0 && !statBefore(&st.Stats[i-1], sn) {
			canonical = false
		}
	}
	// An (object, user) pair listed twice has no one statistic to restore
	// to, and shard.put relies on each arriving once. In the canonical
	// order every export is written in, strictly ascending neighbours have
	// just ruled that out; any other order needs a set.
	if !canonical {
		type pair struct {
			object int
			user   string
		}
		pairs := make(map[pair]struct{}, len(st.Stats))
		for _, sn := range st.Stats {
			p := pair{sn.Object, sn.User}
			if _, dup := pairs[p]; dup {
				return fmt.Errorf("%w: duplicate stat (%d, %q)", ErrBadState, sn.Object, sn.User)
			}
			pairs[p] = struct{}{}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
