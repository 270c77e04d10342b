package stream

import (
	"fmt"
	"sync"
)

// userState is the engine's per-user bookkeeping: the dense index claims
// are stored under, the carried weight warm-starting the next window,
// and the cumulative privacy spending.
type userState struct {
	idx        int
	id         string
	carry      float64
	estimated  int // closed window (1-based) whose estimate set carry; 0 = none yet
	cumEps     float64
	lastWindow int // last window index this user was charged for
	windows    int // number of windows participated in
	lastSeen   int // open-window index of the user's last activity (LRU order)
	fromSpill  bool
}

// registry maps client IDs to user state. It has its own lock so that
// concurrent Ingest calls (which hold the window lock shared) can still
// register users and charge budgets safely.
//
// Residency is bounded, not the accounting: a user's cumulative epsilon
// must outlive their sufficient statistics, otherwise a returning (or
// hostile, ID-minting) client could reset their privacy budget by going
// idle. Without Config.UserStore entries are therefore never evicted and
// memory grows with the number of distinct client IDs ever seen. With a
// UserStore (and a residency cap) the engine spills idle users' state to
// the durable store at window close and re-admits them on their next
// claim, so residency stays bounded while the spilled record — and the
// ledger underneath it — keeps the budget authoritative. Evicted slots
// are reused through a free list; a slot index is only recycled once no
// sufficient statistic references it (eviction requires fully decayed
// statistics), so the shards never need rewriting.
type registry struct {
	mu     sync.Mutex
	byID   map[string]*userState
	states []*userState // slot-indexed; nil entries are free-list holes
	free   []int        // recycled slot indices

	live int // resident users (non-nil slots)

	// Evicted-population aggregates, so PrivacyReport keeps describing
	// every user this engine has accounted for (not just the resident
	// ones). evicted counts currently spilled users; the high-water marks
	// stay valid because an evicted user's spending is frozen until they
	// are readmitted back into the resident scan.
	evicted          int
	evictedExhausted int
	evictedMaxCum    float64
	evictedMaxWin    int
}

func newRegistry() *registry {
	return &registry{byID: make(map[string]*userState)}
}

// get returns the resident state for id, stamping its LRU clock with the
// open window, or reports false when the user is not resident.
func (r *registry) get(id string, window int) (*userState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.byID[id]
	if ok && window > st.lastSeen {
		st.lastSeen = window
	}
	return st, ok
}

// getBytes is get for a byte-slice key: the map lookup converts without
// allocating (the compiler's m[string(b)] special case), so the ingest
// hot path never materializes a string for a user the registry already
// interned.
func (r *registry) getBytes(id []byte, window int) (*userState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.byID[string(id)]
	if ok && window > st.lastSeen {
		st.lastSeen = window
	}
	return st, ok
}

// getOrCreate returns the resident state for id, admitting a fresh one
// (free-list slot first, then a new slot) when the user is not resident.
// window stamps the LRU clock.
func (r *registry) getOrCreate(id string, window int) *userState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.byID[id]; ok {
		if window > st.lastSeen {
			st.lastSeen = window
		}
		return st
	}
	st := &userState{
		id:         id,
		carry:      1, // the uniform batch initialization
		lastWindow: -1,
		lastSeen:   window,
	}
	if n := len(r.free); n > 0 {
		st.idx = r.free[n-1]
		r.free = r.free[:n-1]
		r.states[st.idx] = st
	} else {
		st.idx = len(r.states)
		r.states = append(r.states, st)
	}
	r.byID[id] = st
	r.live++
	return st
}

// readmitSpill loads a spilled user's persistent bookkeeping into their
// freshly admitted state and moves them from the evicted population back
// into the resident one.
func (r *registry) readmitSpill(st *userState, sp *UserSpill, eps, budget float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st.carry = sp.Carry
	st.cumEps = sp.CumulativeEpsilon
	st.lastWindow = sp.LastWindow
	st.windows = sp.Windows
	st.fromSpill = true
	if r.evicted > 0 {
		r.evicted--
	}
	if r.evictedExhausted > 0 && exhausted(st.cumEps, eps, budget) {
		r.evictedExhausted--
	}
}

// charge debits eps for participating in the given window. The
// accounting unit is the release unit: each submission is an
// independently-perturbed release, so the per-window epsilon pays for
// exactly one of them — a second submission into the same open window is
// rejected with ErrDuplicateWindow instead of being folded into the
// statistics for free. With a positive budget the debit is also refused
// (and the submission rejected) when it would exhaust the user's cap.
// On success it returns the user's previous lastWindow — so a failed
// durable-ledger append can roll the debit back with uncharge — and
// the new cumulative epsilon, for the engine's spending-distribution
// histogram.
func (r *registry) charge(st *userState, window int, eps, budget float64) (int, float64, error) {
	if eps == 0 {
		return 0, 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st.lastWindow == window {
		return 0, 0, fmt.Errorf("%w: user %q already submitted in window %d",
			ErrDuplicateWindow, st.id, window+1)
	}
	if exhausted(st.cumEps, eps, budget) {
		return 0, 0, fmt.Errorf("%w: user %q spent %.6g of %.6g, next window costs %.6g",
			ErrBudgetExhausted, st.id, st.cumEps, budget, eps)
	}
	prev := st.lastWindow
	st.cumEps += eps
	st.lastWindow = window
	st.windows++
	return prev, st.cumEps, nil
}

// replayCharge folds one already-durable journal record into the user's
// budget during recovery replay. Unlike charge it never rejects: the
// epsilon was spent and acknowledged before the crash, so the budget cap
// does not apply retroactively and the duplicate-window guard doubles as
// the idempotency check — a record whose window the user was already
// charged for (by the snapshot or an earlier record) reports false and
// must be skipped entirely by the caller.
func (r *registry) replayCharge(st *userState, window int, eps float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if window <= st.lastWindow {
		return false
	}
	st.cumEps += eps
	st.lastWindow = window
	st.windows++
	return true
}

// uncharge reverts a charge whose ledger record could not be made
// durable: without the record on disk the release must not be admitted,
// or a crash would hand the user the epsilon back.
func (r *registry) uncharge(st *userState, eps float64, prevLastWindow int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st.cumEps -= eps
	if st.cumEps < 0 {
		st.cumEps = 0
	}
	st.lastWindow = prevLastWindow
	st.windows--
}

// dropIfIdle removes a freshly admitted user whose submission was then
// rejected, provided nothing charged them into the open window in the
// meantime (a racing successful ingest must keep its state). The caller
// guarantees the on-disk record (spill or nothing at all) still matches
// the state being dropped, so no re-spill is needed — which is what
// stops an exhausted client from pinning residency by hammering. It
// reports whether the user returned to the evicted population.
func (r *registry) dropIfIdle(st *userState, window int, eps, budget float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st.lastWindow == window {
		return false // a concurrent ingest charged them; they stay
	}
	if r.states[st.idx] != st || r.byID[st.id] != st {
		return false // already dropped or superseded
	}
	r.removeLocked(st)
	if st.fromSpill {
		r.evicted++
		if exhausted(st.cumEps, eps, budget) {
			r.evictedExhausted++
		}
		if st.cumEps > r.evictedMaxCum {
			r.evictedMaxCum = st.cumEps
		}
		if st.windows > r.evictedMaxWin {
			r.evictedMaxWin = st.windows
		}
	}
	return st.fromSpill
}

// evict removes already-spilled users from the resident set, folding
// their spending into the evicted-population aggregates. Callers must
// have made the matching spill records durable first.
func (r *registry) evict(victims []*userState, eps, budget float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range victims {
		if r.states[st.idx] != st {
			continue
		}
		r.removeLocked(st)
		r.evicted++
		if exhausted(st.cumEps, eps, budget) {
			r.evictedExhausted++
		}
		if st.cumEps > r.evictedMaxCum {
			r.evictedMaxCum = st.cumEps
		}
		if st.windows > r.evictedMaxWin {
			r.evictedMaxWin = st.windows
		}
	}
}

// removeLocked frees one resident slot. Callers hold r.mu.
func (r *registry) removeLocked(st *userState) {
	delete(r.byID, st.id)
	r.states[st.idx] = nil
	r.free = append(r.free, st.idx)
	r.live--
}

// evictable returns the resident users eligible for eviction — the ones
// no live sufficient statistic references (pinned reports the slot
// indices that do) — in LRU order: least-recently-seen first, ties by
// slot index so the order is deterministic.
func (r *registry) evictable(pinned func(slot int) bool) []*userState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*userState, 0, r.live)
	for _, st := range r.states {
		if st == nil || pinned(st.idx) {
			continue
		}
		out = append(out, st)
	}
	// Insertion sort keeps this allocation-free; eviction scans run at
	// window close, not on the ingest hot path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.lastSeen < b.lastSeen || (a.lastSeen == b.lastSeen && a.idx < b.idx) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

// exhausted reports whether spending eps for one more window would push
// the cumulative total past the budget. A small relative slack keeps an
// exact multiple of eps affordable despite accumulated rounding; the
// single definition keeps charge rejections and the ExhaustedUsers
// report in agreement.
func exhausted(cumEps, eps, budget float64) bool {
	return budget > 0 && cumEps+eps-budget > 1e-9*eps
}

// count returns the number of resident users.
func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live
}

// tracked returns the number of users the engine currently accounts for:
// resident plus evicted-to-store.
func (r *registry) tracked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live + r.evicted
}

// slots returns the slot-space size (resident users plus free holes) —
// the length every per-user slice indexed by userState.idx must have.
func (r *registry) slots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.states)
}

// carryWeights returns the warm-start weight vector indexed by user
// slot: each user's previous estimate, or uniform 1 when carryover is
// disabled (or the user is new). Free slots get 1; nothing references
// them (eviction requires fully decayed statistics).
func (r *registry) carryWeights(disableCarryover bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws := make([]float64, len(r.states))
	for i, st := range r.states {
		if disableCarryover || st == nil {
			ws[i] = 1
			continue
		}
		ws[i] = st.carry
	}
	return ws
}

// updateCarry stores closed window window's final weights for users that
// were active (had live statistics); inactive users keep their carried
// value for when their statistics come back.
func (r *registry) updateCarry(weights []float64, claimCount []int, window int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, st := range r.states {
		if st != nil && claimCount[i] > 0 {
			st.carry = weights[i]
			st.estimated = window
		}
	}
}

// weightsAt returns, by client ID, the carry of every resident user that
// closed window window estimated.
func (r *registry) weightsAt(window int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, r.live)
	for _, st := range r.states {
		if st != nil && st.estimated == window {
			out[st.id] = st.carry
		}
	}
	return out
}

// ids returns the client ID per slot; free slots are "".
func (r *registry) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.states))
	for i, st := range r.states {
		if st != nil {
			out[i] = st.id
		}
	}
	return out
}

// export copies every resident user's persistent bookkeeping in slot
// order (free slots are skipped; spilled users live in the store, not
// the snapshot).
func (r *registry) export() []UserSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]UserSnapshot, 0, r.live)
	for _, st := range r.states {
		if st == nil {
			continue
		}
		out = append(out, st.snapshot())
	}
	return out
}

// snapshot copies one user's persistent bookkeeping.
func (st *userState) snapshot() UserSnapshot {
	return UserSnapshot{
		ID:                st.id,
		Carry:             st.carry,
		CumulativeEpsilon: st.cumEps,
		LastWindow:        st.lastWindow,
		Windows:           st.windows,
	}
}

// restore populates an empty registry from exported snapshots, keeping
// their order so restored stats can keep referencing users by index.
func (r *registry) restore(users []UserSnapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.states) != 0 {
		return fmt.Errorf("%w: registry already holds %d users", ErrBadState, len(r.states))
	}
	for _, u := range users {
		st := &userState{
			idx:        len(r.states),
			id:         u.ID,
			carry:      u.Carry,
			cumEps:     u.CumulativeEpsilon,
			lastWindow: u.LastWindow,
			windows:    u.Windows,
			lastSeen:   u.LastWindow,
		}
		r.byID[u.ID] = st
		r.states = append(r.states, st)
		r.live++
	}
	return nil
}

// PrivacyReport summarizes the stream's cumulative privacy spending at a
// window boundary. It carries aggregates only: a per-user map would be
// the full historical client-ID roster — O(users) to build per report
// and participation metadata any poller could harvest.
type PrivacyReport struct {
	// EpsilonPerWindow is the epsilon charged for one window of
	// participation; Delta is the LDP delta it is accounted at.
	EpsilonPerWindow float64 `json:"epsilonPerWindow"`
	Delta            float64 `json:"delta"`
	// Budget is the enforced cumulative cap (0 = tracking only).
	Budget float64 `json:"budget"`
	// TrackedUsers counts the distinct client IDs the engine accounts
	// for: resident plus evicted-to-store. (After a recovery it counts
	// the users the recovered state references.)
	TrackedUsers int `json:"trackedUsers"`
	// MaxCumulative is the largest per-user cumulative epsilon.
	MaxCumulative float64 `json:"maxCumulative"`
	// MaxWindows is the largest number of windows any single user has
	// been charged for.
	MaxWindows int `json:"maxWindows"`
	// CumulativeDelta is the basic-composition delta of the most active
	// user: MaxWindows * Delta. Delta, like epsilon, composes linearly
	// across windows, so a user charged for k windows holds at most a
	// (k*EpsilonPerWindow, k*Delta)-LDP guarantee; any user's own delta
	// is (their cumulative epsilon / EpsilonPerWindow) * Delta.
	CumulativeDelta float64 `json:"cumulativeDelta"`
	// ExhaustedUsers counts users who can no longer afford a window
	// under the enforced budget (an evicted user's spending is frozen,
	// so their exhaustion status carries over from eviction time).
	ExhaustedUsers int `json:"exhaustedUsers"`
}

func (r *registry) report(eps, delta, budget float64) *PrivacyReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &PrivacyReport{
		EpsilonPerWindow: eps,
		Delta:            delta,
		Budget:           budget,
		TrackedUsers:     r.live + r.evicted,
		MaxCumulative:    r.evictedMaxCum,
		MaxWindows:       r.evictedMaxWin,
		ExhaustedUsers:   r.evictedExhausted,
	}
	for _, st := range r.states {
		if st == nil {
			continue
		}
		if st.cumEps > rep.MaxCumulative {
			rep.MaxCumulative = st.cumEps
		}
		if st.windows > rep.MaxWindows {
			rep.MaxWindows = st.windows
		}
		if exhausted(st.cumEps, eps, budget) {
			rep.ExhaustedUsers++
		}
	}
	rep.CumulativeDelta = float64(rep.MaxWindows) * delta
	return rep
}
