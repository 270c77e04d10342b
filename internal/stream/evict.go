package stream

import "fmt"

// admit resolves a user ID to a handle on resident state, creating it
// when the user is unknown, and returns the registry's interned copy of
// the ID. With a UserStore configured the slow path first consults
// the spill store, so a previously evicted user is re-admitted with
// their spilled carry weight and cumulative budget — an exhausted user
// comes back exhausted. The returned fresh flag reports a slow-path
// admission (the caller may drop it again via dropIfIdle if the
// submission is then rejected).
//
// Callers hold e.mu (shared or exclusive); the slow path additionally
// serializes on admitMu so concurrent admissions cannot both re-admit
// one spilled user.
func (e *Engine) admit(id string) (userRef, string, bool, error) {
	if ref, interned, ok := e.users.get(id, e.window); ok {
		return ref, interned, false, nil
	}
	if e.cfg.UserStore == nil {
		return e.users.getOrCreate(id, e.window), id, false, nil
	}
	e.admitMu.Lock()
	defer e.admitMu.Unlock()
	if ref, interned, ok := e.users.get(id, e.window); ok {
		return ref, interned, false, nil // raced with another admission; theirs won
	}
	sp, found, err := e.cfg.UserStore.LoadUser(id)
	if err != nil {
		return userRef{}, "", false, fmt.Errorf("%w: load user %q: %v", ErrUserStore, id, err)
	}
	if found {
		if sp == nil {
			return userRef{}, "", false, fmt.Errorf("%w: nil spill record for user %q", ErrBadState, id)
		}
		if err := validateUser(&sp.UserSnapshot); err != nil {
			return userRef{}, "", false, err
		}
		// A spilled carry is only meaningful to the estimator that wrote
		// it, exactly like snapshots (records written before the field
		// existed were CRH).
		written := sp.Estimator
		if written == "" {
			written = EstimatorCRH
		}
		if written != e.cfg.Estimator {
			return userRef{}, "", false, fmt.Errorf("%w: spilled state of user %q written by %q, engine configured for %q",
				ErrEstimatorMismatch, id, written, e.cfg.Estimator)
		}
	}
	ref := e.users.getOrCreate(id, e.window)
	if found {
		e.users.readmitSpill(ref, sp, e.epsWindow, e.cfg.EpsilonBudget)
		e.metrics.readmitted(1)
	}
	return ref, id, true, nil
}

// admitKey is admit for a submitter identified by exactly one of a
// string and a byte-slice ID (the binary wire's pooled decode path): for
// the byte form the resident fast path looks the user up without
// allocating, and only an unknown user — whose ID the registry must
// intern anyway — pays the string conversion on the slow path.
func (e *Engine) admitKey(id string, key []byte) (userRef, string, bool, error) {
	if key == nil {
		return e.admit(id)
	}
	if ref, interned, ok := e.users.getBytes(key, e.window); ok {
		return ref, interned, false, nil
	}
	return e.admit(string(key))
}

// evictIdleLocked enforces the residency cap at a window boundary: if
// the resident set exceeds MaxResidentUsers, the
// least-recently-seen users whose sufficient statistics have fully
// decayed away are spilled to the UserStore and evicted. Users that
// still hold live statistics are pinned resident — their decayed
// sums/masses keep contributing to estimates, so evicting them would
// change results; a fully decayed user contributes nothing, which is
// what makes an evict/readmit run match an unbounded one exactly.
//
// The spill must be durable before the in-memory state is dropped: a
// snapshot taken after this close may exclude the user and allow the
// journal holding their charges to be compacted away, leaving the spill
// record as the only copy of their budget. A spill failure therefore
// skips the eviction (the users stay resident, the next close retries)
// and never fails the close.
//
// Callers must hold e.mu exclusively with the shards paused.
func (e *Engine) evictIdleLocked() {
	if e.cfg.UserStore == nil || e.cfg.MaxResidentUsers == 0 {
		return
	}
	excess := e.users.count() - e.cfg.MaxResidentUsers
	if excess <= 0 {
		return
	}
	pinned := func(slot int) bool {
		for _, s := range e.shards {
			if len(s.row(slot)) > 0 {
				return true
			}
		}
		return false
	}
	victims := e.users.evictable(pinned)
	if len(victims) > excess {
		victims = victims[:excess]
	}
	if len(victims) == 0 {
		return
	}
	spills := make([]UserSpill, len(victims))
	for i, u := range e.users.snapshots(victims) {
		spills[i] = UserSpill{UserSnapshot: u, Estimator: e.cfg.Estimator}
	}
	if err := e.cfg.UserStore.SpillUsers(spills); err != nil {
		e.metrics.spillFailed()
		return
	}
	e.users.evict(victims, e.epsWindow, e.cfg.EpsilonBudget)
	e.metrics.evicted(len(victims))
}
