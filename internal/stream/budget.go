package stream

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
)

// maxWindow is the largest value of the engine's window counter: the
// registry keeps window counters as int32, and with the open window at
// most maxWindow a user's lastWindow, lastSeen, estimated and windows
// all stay within that range. A close that would advance past it is
// refused.
const maxWindow = math.MaxInt32 - 1

// userRec is the engine's per-user bookkeeping, one fixed-size record
// per registry slot: the slot is the dense index claims are stored
// under, carry is the weight warm-starting the next window, and cumEps
// the cumulative privacy spending. A free slot has an empty id. The
// record holds no pointer besides id, so the slot table costs the
// collector one pointer per user.
type userRec struct {
	id         string
	carry      float64
	cumEps     float64
	estimated  int32 // closed window (1-based) whose estimate set carry; 0 = none yet
	lastWindow int32 // last window index this user was charged for
	windows    int32 // number of windows participated in
	lastSeen   int32 // open-window index of the user's last activity (LRU order)
	gen        uint32
	fromSpill  bool
}

// userRef is a handle to a resident user: their slot and the slot's
// generation when the handle was issued. Removing a user bumps the
// generation, so a handle outliving its user — a concurrent rejected
// admission may drop them — is refused instead of touching whoever the
// slot is recycled for.
type userRef struct {
	slot int32
	gen  uint32
}

// errStaleUser reports a handle whose user was dropped after the lookup
// that issued it; looking the user up again resolves it. Only a rejected
// re-admission from the UserStore drops a user outside a window close.
var errStaleUser = fmt.Errorf("%w: user dropped since lookup", ErrUserStore)

// registry maps client IDs to user state. It has its own lock so that
// concurrent Ingest calls (which hold the window lock shared) can still
// register users and charge budgets safely.
//
// The state is a flat slot table: recs holds one userRec per slot and
// index is an open-addressing hash table of slots (linear probing,
// load at most 3/4, backward-shift deletion, hashed with a per-registry
// maphash seed). A resident user costs one record plus 4/3 to 8/3 index
// cells, with no heap object of their own.
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
	mu    sync.Mutex
	seed  maphash.Seed
	recs  []userRec // slot-indexed; free slots have an empty id
	index []int32   // slot+1 per cell, 0 = empty; length is 0 or a power of two
	free  []int32   // recycled slot indices

	live int // resident users (non-free slots)

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

// minIndexCells is the index size of the first admission.
const minIndexCells = 16

func newRegistry() *registry {
	return &registry{seed: maphash.MakeSeed()}
}

// cellOf returns the index cell holding id, or -1 when id is not
// resident. Callers hold r.mu.
func (r *registry) cellOf(id string) int {
	if r.live == 0 {
		return -1
	}
	mask := len(r.index) - 1
	for i := int(maphash.String(r.seed, id)) & mask; ; i = (i + 1) & mask {
		s := r.index[i]
		if s == 0 {
			return -1
		}
		if r.recs[s-1].id == id {
			return i
		}
	}
}

// cellOfBytes is cellOf for a byte-slice key; neither the hash nor the
// comparison materializes a string, so looking up a resident user on
// the binary wire allocates nothing.
func (r *registry) cellOfBytes(id []byte) int {
	if r.live == 0 {
		return -1
	}
	mask := len(r.index) - 1
	for i := int(maphash.Bytes(r.seed, id)) & mask; ; i = (i + 1) & mask {
		s := r.index[i]
		if s == 0 {
			return -1
		}
		if r.recs[s-1].id == string(id) {
			return i
		}
	}
}

// insertLocked indexes slot under its record's id, rebuilding the index
// at twice the size instead when one more entry would push the load past
// 3/4. Callers hold r.mu and have counted the slot in r.live.
func (r *registry) insertLocked(slot int32) {
	if r.live*4 > len(r.index)*3 {
		r.rehashLocked(max(minIndexCells, 2*len(r.index))) // indexes slot too
		return
	}
	r.placeLocked(slot)
}

// rehashLocked rebuilds the index at cells cells (a power of two) from
// every resident slot. Callers hold r.mu.
func (r *registry) rehashLocked(cells int) {
	r.index = make([]int32, cells)
	for slot := range r.recs {
		if r.recs[slot].id != "" {
			r.placeLocked(int32(slot))
		}
	}
}

// placeLocked stores slot in the first empty cell of its probe run.
// Callers hold r.mu and guarantee the index has room.
func (r *registry) placeLocked(slot int32) {
	mask := len(r.index) - 1
	i := int(maphash.String(r.seed, r.recs[slot].id)) & mask
	for r.index[i] != 0 {
		i = (i + 1) & mask
	}
	r.index[i] = slot + 1
}

// unindexLocked empties cell i with a backward shift: each later entry
// of the probe run moves into the hole when the hole lies between its
// home cell and where it sits, so every remaining entry stays reachable
// from its home without tombstones. Callers hold r.mu.
func (r *registry) unindexLocked(i int) {
	mask := len(r.index) - 1
	for j := (i + 1) & mask; r.index[j] != 0; j = (j + 1) & mask {
		home := int(maphash.String(r.seed, r.recs[r.index[j]-1].id)) & mask
		if (j-home)&mask >= (j-i)&mask {
			r.index[i] = r.index[j]
			i = j
		}
	}
	r.index[i] = 0
}

// foundLocked turns index cell i (from cellOf or cellOfBytes) into a
// handle plus the interned ID, stamping the user's LRU clock with the
// open window. Callers hold r.mu.
func (r *registry) foundLocked(i, window int) (userRef, string, bool) {
	if i < 0 {
		return userRef{}, "", false
	}
	slot := r.index[i] - 1
	rec := &r.recs[slot]
	if int32(window) > rec.lastSeen {
		rec.lastSeen = int32(window)
	}
	return userRef{slot: slot, gen: rec.gen}, rec.id, true
}

// get returns a handle to id's resident record and the registry's
// interned copy of the ID, stamping the LRU clock with the open window,
// or reports false when the user is not resident.
func (r *registry) get(id string, window int) (userRef, string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.foundLocked(r.cellOf(id), window)
}

// getBytes is get for a byte-slice key, without allocating.
func (r *registry) getBytes(id []byte, window int) (userRef, string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.foundLocked(r.cellOfBytes(id), window)
}

// getOrCreate returns a handle to id's resident record, admitting a
// fresh one (free-list slot first, then a new slot) when the user is not
// resident. window stamps the LRU clock.
func (r *registry) getOrCreate(id string, window int) userRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ref, _, ok := r.foundLocked(r.cellOf(id), window); ok {
		return ref
	}
	var slot int32
	if n := len(r.free); n > 0 {
		slot = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		slot = int32(len(r.recs))
		r.recs = append(r.recs, userRec{})
	}
	rec := &r.recs[slot]
	*rec = userRec{
		id:         id,
		carry:      1, // the uniform batch initialization
		lastWindow: -1,
		lastSeen:   int32(window),
		gen:        rec.gen,
	}
	r.live++
	r.insertLocked(slot)
	return userRef{slot: slot, gen: rec.gen}
}

// recLocked returns the record ref names, or nil when the user it was
// issued for is gone. Callers hold r.mu.
func (r *registry) recLocked(ref userRef) *userRec {
	rec := &r.recs[ref.slot]
	if rec.gen != ref.gen || rec.id == "" {
		return nil
	}
	return rec
}

// readmitSpill loads a spilled user's persistent bookkeeping into their
// freshly admitted record and moves them from the evicted population
// back into the resident one. The caller has validated sp (validateUser
// keeps its counters within int32).
func (r *registry) readmitSpill(ref userRef, sp *UserSpill, eps, budget float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recLocked(ref)
	if rec == nil {
		return
	}
	rec.carry = sp.Carry
	rec.cumEps = sp.CumulativeEpsilon
	rec.lastWindow = int32(sp.LastWindow)
	rec.windows = int32(sp.Windows)
	rec.fromSpill = true
	if r.evicted > 0 {
		r.evicted--
	}
	if r.evictedExhausted > 0 && exhausted(rec.cumEps, eps, budget) {
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
// histogram. A stale handle is refused with errStaleUser.
func (r *registry) charge(ref userRef, window int, eps, budget float64) (int, float64, error) {
	if eps == 0 {
		return 0, 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recLocked(ref)
	if rec == nil {
		return 0, 0, errStaleUser
	}
	if int(rec.lastWindow) == window {
		return 0, 0, fmt.Errorf("%w: user %q already submitted in window %d",
			ErrDuplicateWindow, rec.id, window+1)
	}
	if exhausted(rec.cumEps, eps, budget) {
		return 0, 0, fmt.Errorf("%w: user %q spent %.6g of %.6g, next window costs %.6g",
			ErrBudgetExhausted, rec.id, rec.cumEps, budget, eps)
	}
	prev := int(rec.lastWindow)
	rec.cumEps += eps
	rec.lastWindow = int32(window)
	rec.windows++
	return prev, rec.cumEps, nil
}

// replayCharge folds one already-durable journal record into the user's
// budget during recovery replay. Unlike charge it never rejects: the
// epsilon was spent and acknowledged before the crash, so the budget cap
// does not apply retroactively and the duplicate-window guard doubles as
// the idempotency check — a record whose window the user was already
// charged for (by the snapshot or an earlier record) reports false and
// must be skipped entirely by the caller.
func (r *registry) replayCharge(ref userRef, window int, eps float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recLocked(ref)
	if rec == nil || window <= int(rec.lastWindow) {
		return false
	}
	rec.cumEps += eps
	rec.lastWindow = int32(window)
	rec.windows++
	return true
}

// uncharge reverts a charge whose ledger record could not be made
// durable: without the record on disk the release must not be admitted,
// or a crash would hand the user the epsilon back.
func (r *registry) uncharge(ref userRef, eps float64, prevLastWindow int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recLocked(ref)
	if rec == nil {
		return
	}
	rec.cumEps -= eps
	if rec.cumEps < 0 {
		rec.cumEps = 0
	}
	rec.lastWindow = int32(prevLastWindow)
	rec.windows--
}

// dropIfIdle removes a freshly admitted user whose submission was then
// rejected, provided nothing charged them into the open window in the
// meantime (a racing successful ingest must keep its state). The caller
// guarantees the on-disk record (spill or nothing at all) still matches
// the state being dropped, so no re-spill is needed — which is what
// stops an exhausted client from pinning residency by hammering. It
// reports whether the user returned to the evicted population.
func (r *registry) dropIfIdle(ref userRef, window int, eps, budget float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recLocked(ref)
	if rec == nil || int(rec.lastWindow) == window {
		return false // already dropped, or a concurrent ingest charged them
	}
	fromSpill := rec.fromSpill
	if fromSpill {
		r.countEvictedLocked(rec, eps, budget)
	}
	r.removeLocked(ref.slot)
	return fromSpill
}

// evict removes already-spilled users from the resident set, folding
// their spending into the evicted-population aggregates. Callers must
// have made the matching spill records durable first.
func (r *registry) evict(victims []userRef, eps, budget float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ref := range victims {
		rec := r.recLocked(ref)
		if rec == nil {
			continue
		}
		r.countEvictedLocked(rec, eps, budget)
		r.removeLocked(ref.slot)
	}
}

// countEvictedLocked folds one leaving user's spending into the
// evicted-population aggregates. Callers hold r.mu.
func (r *registry) countEvictedLocked(rec *userRec, eps, budget float64) {
	r.evicted++
	if exhausted(rec.cumEps, eps, budget) {
		r.evictedExhausted++
	}
	if rec.cumEps > r.evictedMaxCum {
		r.evictedMaxCum = rec.cumEps
	}
	if int(rec.windows) > r.evictedMaxWin {
		r.evictedMaxWin = int(rec.windows)
	}
}

// removeLocked frees one resident slot, bumping its generation so every
// handle issued for the leaving user goes stale. Callers hold r.mu.
func (r *registry) removeLocked(slot int32) {
	r.unindexLocked(r.cellOf(r.recs[slot].id))
	r.recs[slot] = userRec{gen: r.recs[slot].gen + 1}
	r.free = append(r.free, slot)
	r.live--
}

// evictable returns handles to the resident users eligible for eviction
// — the ones no live sufficient statistic references (pinned reports the
// slot indices that do) — in LRU order: least-recently-seen first, ties
// by slot index so the order is deterministic.
func (r *registry) evictable(pinned func(slot int) bool) []userRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]userRef, 0, r.live)
	for slot := range r.recs {
		if r.recs[slot].id == "" || pinned(slot) {
			continue
		}
		out = append(out, userRef{slot: int32(slot), gen: r.recs[slot].gen})
	}
	slices.SortFunc(out, func(a, b userRef) int {
		if c := cmp.Compare(r.recs[a.slot].lastSeen, r.recs[b.slot].lastSeen); c != 0 {
			return c
		}
		return cmp.Compare(a.slot, b.slot)
	})
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
// the length every per-user slice indexed by slot must have.
func (r *registry) slots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// carryWeights returns the warm-start weight vector indexed by user
// slot: each user's previous estimate, or uniform 1 when carryover is
// disabled (or the user is new). Free slots get 1; nothing references
// them (eviction requires fully decayed statistics).
func (r *registry) carryWeights(disableCarryover bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws := make([]float64, len(r.recs))
	for i := range r.recs {
		if disableCarryover || r.recs[i].id == "" {
			ws[i] = 1
			continue
		}
		ws[i] = r.recs[i].carry
	}
	return ws
}

// updateCarry stores closed window window's final weights for users that
// were active (had live statistics); inactive users keep their carried
// value for when their statistics come back.
func (r *registry) updateCarry(weights []float64, claimCount []int, window int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.recs {
		if r.recs[i].id != "" && claimCount[i] > 0 {
			r.recs[i].carry = weights[i]
			r.recs[i].estimated = int32(window)
		}
	}
}

// weightsAt returns, by client ID, the carry of every resident user that
// closed window window estimated.
func (r *registry) weightsAt(window int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, r.live)
	for i := range r.recs {
		if rec := &r.recs[i]; rec.id != "" && int(rec.estimated) == window {
			out[rec.id] = rec.carry
		}
	}
	return out
}

// ids returns the client ID per slot; free slots are "".
func (r *registry) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.recs))
	for i := range r.recs {
		out[i] = r.recs[i].id
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
	for i := range r.recs {
		if r.recs[i].id != "" {
			out = append(out, r.recs[i].snapshot())
		}
	}
	return out
}

// snapshots copies the persistent bookkeeping of the users refs name;
// a stale handle yields a zero snapshot (empty ID).
func (r *registry) snapshots(refs []userRef) []UserSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]UserSnapshot, len(refs))
	for i, ref := range refs {
		if rec := r.recLocked(ref); rec != nil {
			out[i] = rec.snapshot()
		}
	}
	return out
}

// snapshot copies one user's persistent bookkeeping.
func (rec *userRec) snapshot() UserSnapshot {
	return UserSnapshot{
		ID:                rec.id,
		Carry:             rec.carry,
		CumulativeEpsilon: rec.cumEps,
		LastWindow:        int(rec.lastWindow),
		Windows:           int(rec.windows),
	}
}

// restore populates an empty registry from exported snapshots, keeping
// their order so restored stats can keep referencing users by index.
// The slot table and index are sized for exactly these users; the
// caller has validated them (validateUser keeps their counters within
// int32).
func (r *registry) restore(users []UserSnapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recs) != 0 {
		return fmt.Errorf("%w: registry already holds %d users", ErrBadState, len(r.recs))
	}
	r.recs = make([]userRec, len(users))
	for i, u := range users {
		r.recs[i] = userRec{
			id:         u.ID,
			carry:      u.Carry,
			cumEps:     u.CumulativeEpsilon,
			lastWindow: int32(u.LastWindow),
			windows:    int32(u.Windows),
			lastSeen:   int32(u.LastWindow),
		}
	}
	r.live = len(users)
	cells := minIndexCells
	for r.live*4 > cells*3 {
		cells *= 2
	}
	r.rehashLocked(cells)
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
	for i := range r.recs {
		rec := &r.recs[i]
		if rec.id == "" {
			continue
		}
		if rec.cumEps > rep.MaxCumulative {
			rep.MaxCumulative = rec.cumEps
		}
		if int(rec.windows) > rep.MaxWindows {
			rep.MaxWindows = int(rec.windows)
		}
		if exhausted(rec.cumEps, eps, budget) {
			rep.ExhaustedUsers++
		}
	}
	rep.CumulativeDelta = float64(rep.MaxWindows) * delta
	return rep
}
