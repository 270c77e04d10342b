package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"pptd/internal/randx"
)

// stat is the reference model's statistic; the model keys them by
// {object, slot} in a plain map and knows nothing about rows.
type stat struct{ sum, mass float64 }

func (st stat) fold(v float64) stat { return stat{st.sum + v, st.mass + 1} }

// decayModel is shard.decay on the reference map.
func decayModel[K comparable](ref map[K]stat, factor float64) {
	for k, st := range ref {
		st.sum *= factor
		st.mass *= factor
		if st.mass < evictFloor {
			delete(ref, k)
			continue
		}
		ref[k] = st
	}
}

// checkShard holds a paused shard to the store's contract: every row
// whole records strictly ascending by object and holding only the shard's
// objects, an emptied row released, the live counter equal to the number
// of records,
// and a view whose objects ascend and whose per-object claims ascend
// strictly by slot — the order the estimators' bit-identical sums rest
// on. lookup returns the model's statistic for a cell.
func checkShard(t *testing.T, s *shard, lookup func(object, slot int) (stat, bool)) (cells int) {
	t.Helper()
	perObject := map[int]int{}
	for slot, r := range s.rows {
		if len(r) == 0 && r != nil {
			t.Fatalf("slot %d: emptied row not released", slot)
		}
		if len(r)%cellSize != 0 {
			t.Fatalf("slot %d: row of %d bytes is not whole records", slot, len(r))
		}
		for off := 0; off < len(r); off += cellSize {
			c := r.at(off)
			if c.object%s.numShards != s.index {
				t.Fatalf("slot %d: object %d on shard %d of %d", slot, c.object, s.index, s.numShards)
			}
			if off > 0 && r.object(off-cellSize) >= c.object {
				t.Fatalf("slot %d: row not strictly ascending: %d then %d", slot, r.object(off-cellSize), c.object)
			}
			want, ok := lookup(c.object, slot)
			if !ok || want.sum != c.sum || want.mass != c.mass {
				t.Fatalf("slot %d object %d: cell {%v %v}, model %+v (present %v)", slot, c.object, c.sum, c.mass, want, ok)
			}
			perObject[c.object]++
			cells++
		}
	}
	if s.live != cells {
		t.Fatalf("live counter %d, %d cells", s.live, cells)
	}

	v := s.view()
	if len(v.objects) != len(perObject) || len(v.claims) != len(v.objects) || len(v.stds) != len(v.objects) {
		t.Fatalf("view covers %d objects (%d claim lists, %d stds), rows cover %d", len(v.objects), len(v.claims), len(v.stds), len(perObject))
	}
	for i, obj := range v.objects {
		if i > 0 && v.objects[i-1] >= obj {
			t.Fatalf("view objects not ascending: %d then %d", v.objects[i-1], obj)
		}
		if len(v.claims[i]) != perObject[obj] {
			t.Fatalf("view object %d: %d claims, rows hold %d", obj, len(v.claims[i]), perObject[obj])
		}
		for j, c := range v.claims[i] {
			if j > 0 && v.claims[i][j-1].user >= c.user {
				t.Fatalf("view object %d: claims not strictly ascending by slot: %d then %d", obj, v.claims[i][j-1].user, c.user)
			}
			if want, _ := lookup(obj, c.user); c.value != want.sum/want.mass {
				t.Fatalf("view object %d slot %d: value %v, model %v", obj, c.user, c.value, want.sum/want.mass)
			}
		}
		if v.stds[i] != popStd(v.claims[i]) {
			t.Fatalf("view object %d: std %v, want %v", obj, v.stds[i], popStd(v.claims[i]))
		}
	}
	return cells
}

// TestShardRowsModel drives one shard with seeded random operations —
// batches that resend a row's objects in order, shuffle them, repeat
// them, or bring new ones that land in the middle of an existing row;
// decays gentle and down to the floor; a rebuild through put in random
// order, as Restore does — and after every step compares it against the
// map model. The second geometry's objects straddle 2¹⁶, so a record that
// kept only the low 16 bits of an object would misplace them.
func TestShardRowsModel(t *testing.T) {
	const slots = 9
	for _, geo := range []struct{ numShards, index, numObjects int }{
		{3, 1, 40},
		{5000, 7, 100000},
	} {
		var own []int
		for obj := geo.index; obj < geo.numObjects; obj += geo.numShards {
			own = append(own, obj)
		}
		shardRowsModel(t, geo.numShards, geo.index, geo.numObjects, slots, own)
	}
}

func shardRowsModel(t *testing.T, numShards, index, numObjects, slots int, own []int) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		rng := randx.New(seed)
		s := newShard(1, index, numShards, numObjects)
		ref := map[[2]int]stat{}
		last := map[int][]Claim{}
		for step := 0; step < 500; step++ {
			switch rng.Intn(12) {
			case 0:
				factor := []float64{0.5, 1e-3, 1e-5}[rng.Intn(3)]
				s.decay(factor)
				decayModel(ref, factor)
			case 1:
				keys := make([][2]int, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool {
					return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
				})
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				s = newShard(1, index, numShards, numObjects)
				for _, k := range keys {
					s.put(k[1], cell{object: k[0], sum: ref[k].sum, mass: ref[k].mass})
				}
			default:
				slot := rng.Intn(slots)
				claims := last[slot]
				if len(claims) == 0 || rng.Float64() < 0.6 {
					// Random picks: out of order, sometimes repeated,
					// sometimes new to the row.
					claims = make([]Claim, 1+rng.Intn(6))
					for i := range claims {
						claims[i].Object = own[rng.Intn(len(own))]
					}
					last[slot] = claims
				}
				for i := range claims {
					claims[i].Value = rng.Norm()
					k := [2]int{claims[i].Object, slot}
					ref[k] = ref[k].fold(claims[i].Value)
				}
				s.apply(slot, claims)
			}
			cells := checkShard(t, s, func(object, slot int) (stat, bool) {
				st, ok := ref[[2]int{object, slot}]
				return st, ok
			})
			if cells != len(ref) {
				t.Fatalf("%d objects, seed %d step %d: %d cells, model holds %d", numObjects, seed, step, cells, len(ref))
			}
		}
	}
}

// TestEngineRowsModel runs the same comparison through a whole engine:
// Ingest and CloseWindow with a decay that takes several windows to reach
// the floor, a residency cap that evicts users once their rows are empty
// and recycles their slots, a drifting population whose old users
// sometimes return, and an export → Restore into a fresh engine halfway.
// The model is keyed by user ID, so a recycled slot that kept its
// previous occupant's cells would show up as statistics the model lacks.
func TestEngineRowsModel(t *testing.T) {
	for _, est := range estimatorsUnderTest(t) {
		for _, seed := range []uint64{1, 2, 3} {
			engineRowsModel(t, est, seed)
		}
	}
}

func engineRowsModel(t *testing.T, estimator string, seed uint64) {
	type pair struct {
		object int
		user   string
	}
	rng := randx.New(seed)
	cfg := Config{NumObjects: 11, NumShards: 3, Estimator: estimator, Decay: 0.03, MaxResidentUsers: 4, UserStore: newMemUserStore()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	ref := map[pair]stat{}
	seen := map[string]bool{}
	check := func(label string) {
		t.Helper()
		e.mu.Lock()
		release := e.pauseShards()
		defer func() { close(release); e.mu.Unlock() }()
		ids := e.users.ids()
		cells := 0
		for _, s := range e.shards {
			cells += checkShard(t, s, func(object, slot int) (stat, bool) {
				if slot >= len(ids) || ids[slot] == "" {
					t.Fatalf("%s: free slot %d holds a statistic on object %d", label, slot, object)
				}
				st, ok := ref[pair{object, ids[slot]}]
				return st, ok
			})
		}
		if cells != len(ref) {
			t.Fatalf("%s: %d cells, model holds %d", label, cells, len(ref))
		}
	}
	recycled := func(label string) {
		t.Helper()
		if slots := e.users.slots(); slots >= len(seen) {
			t.Errorf("%s: %d slots for %d users ever seen: no slot was recycled", label, slots, len(seen))
		}
	}
	for w := 0; w < 60; w++ {
		label := fmt.Sprintf("%s seed %d window %d", estimator, seed, w)
		for b := rng.Intn(5); b > 0; b-- {
			u := w/4 + rng.Intn(4)
			if rng.Float64() < 0.15 {
				u = rng.Intn(w/4 + 1) // someone long idle, likely evicted
			}
			id := fmt.Sprintf("user-%02d", u)
			seen[id] = true
			claims := make([]Claim, 1+rng.Intn(5))
			for i := range claims {
				claims[i] = Claim{Object: rng.Intn(cfg.NumObjects), Value: rng.Norm()}
				k := pair{claims[i].Object, id}
				ref[k] = ref[k].fold(claims[i].Value)
			}
			if _, _, err := e.Ingest(id, claims); err != nil {
				t.Fatal(err)
			}
		}
		check(label + " open")
		if _, err := e.CloseWindow(); err == nil {
			decayModel(ref, cfg.Decay)
		} else if !errors.Is(err, ErrEmptyWindow) {
			t.Fatal(err)
		}
		check(label + " closed")
		if w == 30 {
			// A restored engine numbers its users afresh, so the slots
			// recycled so far are counted before it takes over.
			recycled(label)
			st, err := e.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(st); err != nil {
				t.Fatal(err)
			}
			check(label + " restored")
			seen = map[string]bool{}
			for _, u := range st.Users {
				seen[u.ID] = true
			}
		}
	}
	recycled(fmt.Sprintf("%s seed %d end", estimator, seed))
}

// TestRestoredRowsHaveNoSlack: Restore sizes every row once, so a
// restored row's capacity is exactly its records — at widths where growing
// one put at a time would leave slack, and when the restoring engine
// re-partitions the statistics over a different shard count.
func TestRestoredRowsHaveNoSlack(t *testing.T) {
	const numShards = 2
	widths := []int{3, 8, 12, 16} // records per user on each shard
	cfg := Config{NumObjects: 64, NumShards: numShards}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for _, w := range widths {
		claims := make([]Claim, w*numShards)
		for i := range claims {
			claims[i] = Claim{Object: i, Value: float64(w + i)}
		}
		if _, _, err := e.Ingest(fmt.Sprintf("width-%02d", w), claims); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{numShards, 3} {
		cfg.NumShards = shards
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(st); err != nil {
			t.Fatal(err)
		}
		r.mu.Lock()
		release := r.pauseShards()
		rows := 0
		for i, s := range r.shards {
			for slot, row := range s.rows {
				if cap(row) != len(row) {
					t.Errorf("%d shards: shard %d slot %d: restored row len %d, cap %d", shards, i, slot, len(row), cap(row))
				}
				if len(row) > 0 {
					rows++
				}
			}
		}
		if want := len(widths) * shards; rows != want {
			t.Errorf("%d shards: %d restored rows, want %d", shards, rows, want)
		}
		close(release)
		r.mu.Unlock()
		_ = r.Close()
	}
}

// TestShardApplySteadyStateZeroAlloc: a user's first batch sizes their
// row in exactly one allocation of one record per claim, and once the row
// exists, folding the same objects again allocates nothing — in the order
// they were first sent (the cursor) or any other (the binary search).
func TestShardApplySteadyStateZeroAlloc(t *testing.T) {
	s := newShard(1, 0, 2, 32)
	claims := make([]Claim, 16)
	for i := range claims {
		claims[i] = Claim{Object: 2 * i, Value: float64(i)}
	}
	reversed := make([]Claim, len(claims))
	for i, c := range claims {
		reversed[len(claims)-1-i] = c
	}
	s.reach(7)
	first := func() {
		s.rows[7], s.live = nil, 0
		s.apply(7, claims)
	}
	if n := testing.AllocsPerRun(10, first); n != 1 {
		t.Errorf("a first 16-claim batch allocates %v times, want 1", n)
	}
	if got, want := cap(s.rows[7]), len(claims)*cellSize; got != want {
		t.Errorf("first batch's row has cap %d bytes, want %d", got, want)
	}
	for name, batch := range map[string][]Claim{"same order": claims, "reversed": reversed} {
		if n := testing.AllocsPerRun(100, func() { s.apply(7, batch) }); n != 0 {
			t.Errorf("%s: steady-state apply allocates %v times", name, n)
		}
	}
	if s.live != len(claims) {
		t.Errorf("live = %d, want %d", s.live, len(claims))
	}
}

// TestSparseCloseAllocatesLinearly: with 20 000 users each on 3 of 2 000
// objects, a close (view, estimate, decay, the eviction scan) and an
// export each allocate a small multiple of live statistics + slots +
// objects. A structure dense in users × objects — 40 million cells —
// cannot fit the budget at a byte per cell.
func TestSparseCloseAllocatesLinearly(t *testing.T) {
	const (
		users    = 20000
		objects  = 2000
		perUser  = 3
		perEntry = 200 // bytes allowed per live statistic, slot and object
	)
	e, err := New(Config{
		NumObjects: objects, NumShards: 4, Decay: 0.5,
		// Over the cap, so the close scans for victims; every user holds
		// live statistics, so it finds none.
		MaxResidentUsers: users / 2, UserStore: newMemUserStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	rng := randx.New(9)
	claims := make([]Claim, perUser)
	ingest := func() {
		for u := 0; u < users; u++ {
			for i := range claims {
				claims[i] = Claim{Object: (u*7 + i*661) % objects, Value: rng.Norm()}
			}
			if _, _, err := e.Ingest(fmt.Sprintf("user-%05d", u), claims); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest()
	if _, err := e.CloseWindow(); err != nil { // the first close also sizes the registry
		t.Fatal(err)
	}
	ingest()

	budget := uint64(perEntry * (users*perUser + users + objects))
	if dense := uint64(users * objects); budget >= dense {
		t.Fatalf("budget %d B would admit a dense %d-cell structure", budget, dense)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var res *WindowResult
	if got := allocated(func() { res, err = e.CloseWindow() }); err != nil || got > budget {
		t.Errorf("close allocated %d B (err %v), budget %d B", got, err, budget)
	}
	if res != nil && res.ActiveUsers != users {
		t.Errorf("close saw %d active users, want %d", res.ActiveUsers, users)
	}
	if e.ResidentUsers() != users {
		t.Errorf("%d resident users: the close evicted users that hold live statistics", e.ResidentUsers())
	}
	var st *EngineState
	if got := allocated(func() { st, err = e.ExportState() }); err != nil || got > budget {
		t.Errorf("export allocated %d B (err %v), budget %d B", got, err, budget)
	}
	if st != nil && len(st.Stats) != users*perUser {
		t.Errorf("export holds %d statistics, want %d", len(st.Stats), users*perUser)
	}
}
