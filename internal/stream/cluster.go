package stream

import (
	"fmt"
	"sort"
)

// Cluster support: the engine-side primitives behind internal/cluster's
// sharded-ingest coordinator. A cluster partitions users across worker
// engines (each user's claims, budget, and carry weight live entirely on
// one worker), so per-(object, user) sufficient statistics are
// bitwise identical to a single engine's — what differs is only where
// they sit. Window closes are driven by a coordinator:
//
//  1. every worker runs CloseWindowExport — quiesce, export the raw
//     pre-close statistics, then decay and advance WITHOUT estimating
//     (estimation over a shard of the users would diverge from the
//     single-engine estimate);
//  2. the coordinator merges the disjoint exports (MergeStates), loads
//     the merged state into a fresh engine, and runs the one true
//     CloseWindow there — identical inputs, identical estimate;
//  3. the resulting carry weights are read back with ExportCarry and
//     committed to each owning worker with CommitCarry, so the next
//     window warm-starts exactly as a single engine would.
//
// This is what makes the cluster-vs-single-node equivalence property
// (truths within 1e-9 per estimator) hold by construction.

// UserCarry is one user's cross-window estimation state as committed
// back to their owning worker after a coordinated window close: the
// carry weight warm-starting the next window.
type UserCarry struct {
	ID    string  `json:"id"`
	Carry float64 `json:"carry"`
}

// HasLiveStats reports whether any (object, user) sufficient statistic
// is currently live. A coordinator probes this before a cluster-wide
// close: when no worker holds live statistics the cluster window is
// empty, and closing it would diverge from a single engine (whose
// CloseWindow fails with ErrEmptyWindow without advancing the window).
func (e *Engine) HasLiveStats() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	release := e.pauseShards()
	defer close(release)
	for _, s := range e.shards {
		if s.live > 0 {
			return true
		}
	}
	return false
}

// WindowClaims returns the number of claims ingested into the open
// window so far.
func (e *Engine) WindowClaims() int64 { return e.windowClaims.Load() }

// CloseWindowExport is the worker half of a coordinated window close: it
// quiesces ingestion, exports the pre-close engine state (exactly what
// ExportState would return — raw sufficient statistics, users, window
// counter), then applies the per-window decay and advances the window
// counter WITHOUT estimating. No estimate runs because a worker only
// holds a shard of the user population: estimating over it would update
// carry weights differently than the single-engine estimate over
// everyone. The coordinator merges the exports, runs the one true
// estimation, and commits the resulting carries back via CommitCarry.
//
// Unlike CloseWindow it never fails with ErrEmptyWindow: a worker with
// no live statistics still decays and advances, because the cluster-wide
// window (which some other worker's claims made non-empty) is closing.
// Callers gate the overall empty case with HasLiveStats first.
func (e *Engine) CloseWindowExport() (*EngineState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	if e.window >= maxWindow {
		return nil, fmt.Errorf("%w: window counter at its limit %d", ErrBadState, maxWindow)
	}
	release := e.pauseShards()
	defer close(release)

	st := e.exportStateLocked()
	if e.cfg.Decay < 1 {
		e.eachShardParallel(func(s *shard) { s.decay(e.cfg.Decay) })
	}
	e.window++
	e.windowClaims.Store(0)
	// Eviction is deferred to CommitCarry: the users in this export must
	// stay resident until the merged carry weights come back, or the
	// commit would have nothing to apply them to.
	return st, nil
}

// ExportCarry reads every resident user's carry weight — the coordinator
// calls it on the merge engine right after CloseWindow, to collect the
// post-estimate warm-start state it commits back to the owning workers.
func (e *Engine) ExportCarry() ([]UserCarry, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	ids := e.users.ids()
	carries := e.users.carryWeights(false)
	out := make([]UserCarry, 0, len(ids))
	for idx, id := range ids {
		if id == "" {
			continue // free slot of an evicted user
		}
		out = append(out, UserCarry{ID: id, Carry: carries[idx]})
	}
	return out, nil
}

// CommitCarry applies coordinator-merged carry weights to this worker's
// resident users, completing a coordinated window close. Users unknown
// to this worker are skipped (the coordinator partitions carries by
// owning worker, so in a healthy protocol round every carry finds its
// user). After the carries are applied the residency caps are enforced,
// exactly where CloseWindow would have evicted — so spill records
// written here carry the merged, not the stale, state. The commit is
// all-or-nothing: every carry is validated before any is applied, so a
// refused commit leaves the engine as it found it.
func (e *Engine) CommitCarry(carries []UserCarry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	for _, c := range carries {
		if c.ID == "" || !finite(c.Carry) || c.Carry < 0 {
			return fmt.Errorf("%w: carry for user %q = %v", ErrBadState, c.ID, c.Carry)
		}
	}
	for _, c := range carries {
		e.users.setCarry(c.ID, c.Carry)
	}
	release := e.pauseShards()
	defer close(release)
	e.evictIdleLocked()
	return nil
}

// setCarry stores a committed carry weight for one resident user; a
// user who is not resident is skipped.
func (r *registry) setCarry(id string, carry float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.cellOf(id); i >= 0 {
		r.recs[r.index[i]-1].carry = carry
	}
}

// MergeStates combines per-worker engine exports (CloseWindowExport)
// into the single state a merge engine estimates over. The parts must
// come from the same coordinated close: same estimator, same window
// counter, same object space, and disjoint user populations (each user
// lives on exactly one worker). Users and statistics concatenate in
// part order; statistics are re-sorted into the canonical (object, user)
// order, and claim counters sum.
func MergeStates(parts []*EngineState) (*EngineState, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no states to merge", ErrBadState)
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("%w: nil state at part %d", ErrBadState, i)
		}
	}
	est := parts[0].Estimator
	if est == "" {
		est = EstimatorCRH
	}
	merged := &EngineState{
		NumObjects: parts[0].NumObjects,
		Window:     parts[0].Window,
		Estimator:  est,
	}
	seen := make(map[string]struct{})
	for i, p := range parts {
		pEst := p.Estimator
		if pEst == "" {
			pEst = EstimatorCRH
		}
		if pEst != est {
			return nil, fmt.Errorf("%w: part %d written by %q, part 0 by %q", ErrEstimatorMismatch, i, pEst, est)
		}
		if p.Window != merged.Window {
			return nil, fmt.Errorf("%w: part %d at window %d, part 0 at window %d (torn close)",
				ErrBadState, i, p.Window, merged.Window)
		}
		if p.NumObjects != merged.NumObjects {
			return nil, fmt.Errorf("%w: part %d covers %d objects, part 0 covers %d",
				ErrBadState, i, p.NumObjects, merged.NumObjects)
		}
		for _, u := range p.Users {
			if _, dup := seen[u.ID]; dup {
				return nil, fmt.Errorf("%w: user %q present on more than one worker", ErrBadState, u.ID)
			}
			seen[u.ID] = struct{}{}
		}
		merged.Users = append(merged.Users, p.Users...)
		merged.WindowClaims += p.WindowClaims
		merged.TotalClaims += p.TotalClaims
	}
	merged.Stats = mergeStats(parts)
	return merged, nil
}

// statBefore is the canonical (object, user ID) order of an export.
func statBefore(a, b *StatSnapshot) bool {
	if a.Object != b.Object {
		return a.Object < b.Object
	}
	return a.User < b.User
}

// mergeStats merges the parts' statistics into one canonically ordered
// list. Exports arrive already in that order, so this is a k-way merge —
// about one string comparison per statistic per extra part — rather than
// a sort of the concatenation; a part that is not in order (nothing this
// program writes) is sorted first, on a copy.
func mergeStats(parts []*EngineState) []StatSnapshot {
	heads := make([][]StatSnapshot, 0, len(parts))
	total := 0
	for _, p := range parts {
		stats := p.Stats
		if !sort.SliceIsSorted(stats, func(i, j int) bool { return statBefore(&stats[i], &stats[j]) }) {
			stats = append([]StatSnapshot(nil), stats...)
			sort.Slice(stats, func(i, j int) bool { return statBefore(&stats[i], &stats[j]) })
		}
		if len(stats) > 0 {
			heads = append(heads, stats)
			total += len(stats)
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]StatSnapshot, 0, total)
	for len(heads) > 1 {
		least := 0
		for i := 1; i < len(heads); i++ {
			if statBefore(&heads[i][0], &heads[least][0]) {
				least = i
			}
		}
		out = append(out, heads[least][0])
		if heads[least] = heads[least][1:]; len(heads[least]) == 0 {
			heads = append(heads[:least], heads[least+1:]...)
		}
	}
	return append(out, heads[0]...)
}
