package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// TestStaleUserHandleIsRefused pins the handle rule: once a user is
// dropped, a handle issued for them must not charge, uncharge, drop or
// readmit whoever the recycled slot now holds.
func TestStaleUserHandleIsRefused(t *testing.T) {
	r := newRegistry(1, 0)
	x := r.getOrCreate("x", 0)
	r.dropIfIdle(x, 0)
	if r.count() != 0 {
		t.Fatalf("drop left %d resident users", r.count())
	}
	y := r.getOrCreate("y", 0)
	if y.slot != x.slot {
		t.Fatalf("y got slot %d, want x's recycled slot %d", y.slot, x.slot)
	}
	want := r.export()

	if _, _, err := r.charge(x, 0); !errors.Is(err, errStaleUser) {
		t.Fatalf("charge with a stale handle: err = %v, want errStaleUser", err)
	}
	if r.replayCharge(x, 0, 1) {
		t.Fatal("replayCharge accepted a stale handle")
	}
	r.uncharge(x, -1)
	r.readmitSpill(x, &UserSpill{UserSnapshot: UserSnapshot{ID: "x", Carry: 7, CumulativeEpsilon: 9, LastWindow: 3, Windows: 2}})
	if r.dropIfIdle(x, 1) || r.count() != 1 {
		t.Fatalf("dropIfIdle with a stale handle removed y (resident %d)", r.count())
	}
	r.evict([]userRef{x})
	if got := r.export(); !reflect.DeepEqual(got, want) || r.tracked() != 1 {
		t.Fatalf("stale handle touched y: %+v (tracked %d), want %+v", got, r.tracked(), want)
	}
	if ref, id, ok := r.get("y", 0); !ok || ref != y || id != "y" {
		t.Fatalf("get(y) = %v %q %v, want %v", ref, id, ok, y)
	}
	if _, _, err := r.charge(y, 0); err != nil {
		t.Fatalf("charge with y's own handle: %v", err)
	}
}

// modelUser is the reference model's view of one resident user.
type modelUser struct {
	slot int32
	snap UserSnapshot
}

// TestRegistryModel drives the slot table with seeded random operation
// sequences — admission by string and byte key, charges, drops,
// evictions, re-admission from spill, export→restore round trips and
// index growth through several doublings — and checks it against a plain
// map after every step.
func TestRegistryModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newRegistry(1, 0)
			resident := make(map[string]*modelUser)
			spilled := make(map[string]UserSnapshot)
			var known []string // every ID ever admitted, in admission order
			var freeSlots []int32
			nextSlot := int32(0)
			window := 0
			maxCells := 0

			admit := func(key string) {
				var (
					ref userRef
					ok  bool
				)
				if rng.Intn(2) == 0 {
					ref, _, ok = r.getBytes([]byte(key), window)
				} else {
					ref, _, ok = r.get(key, window)
				}
				if m := resident[key]; m != nil {
					if !ok || ref.slot != m.slot {
						t.Fatalf("lookup %s = %v %v, want slot %d", key, ref, ok, m.slot)
					}
					return
				}
				if ok {
					t.Fatalf("lookup of non-resident %s found slot %d", key, ref.slot)
				}
				ref = r.getOrCreate(key, window)
				slot := nextSlot
				if n := len(freeSlots); n > 0 {
					slot = freeSlots[n-1]
					freeSlots = freeSlots[:n-1]
				} else {
					nextSlot++
				}
				if ref.slot != slot {
					t.Fatalf("admit %s got slot %d, want %d", key, ref.slot, slot)
				}
				m := &modelUser{slot: slot, snap: UserSnapshot{ID: key, Carry: 1, LastWindow: -1}}
				if sp, ok := spilled[key]; ok {
					r.readmitSpill(ref, &UserSpill{UserSnapshot: sp})
					delete(spilled, key)
					m.snap = sp
				}
				resident[key] = m
			}
			refOf := func(key string) userRef {
				ref, _, ok := r.get(key, window)
				if !ok {
					t.Fatalf("resident %s not found", key)
				}
				return ref
			}
			// pickResident returns a random resident ID, or "" when none.
			pickResident := func() string {
				if len(resident) == 0 {
					return ""
				}
				for {
					if key := known[rng.Intn(len(known))]; resident[key] != nil {
						return key
					}
				}
			}

			for step := 0; step < 2000; step++ {
				switch op := rng.Intn(100); {
				case op < 50:
					key := fmt.Sprintf("u%06d", len(known))
					known = append(known, key)
					admit(key)
				case op < 70:
					if len(known) > 0 {
						admit(known[rng.Intn(len(known))])
					}
				case op < 78:
					key := pickResident()
					if key == "" {
						break
					}
					m := resident[key]
					_, _, err := r.charge(refOf(key), window)
					if m.snap.LastWindow == window {
						if !errors.Is(err, ErrDuplicateWindow) {
							t.Fatalf("second charge of %s in window %d: err = %v", key, window, err)
						}
						break
					}
					if err != nil {
						t.Fatalf("charge %s: %v", key, err)
					}
					m.snap.CumulativeEpsilon++
					m.snap.LastWindow = window
					m.snap.Windows++
				case op < 86:
					key := pickResident()
					if key == "" {
						break
					}
					m := resident[key]
					r.dropIfIdle(refOf(key), window)
					if m.snap.LastWindow == window {
						break // charged into the open window: stays
					}
					delete(resident, key)
					freeSlots = append(freeSlots, m.slot)
				case op < 91:
					var victims []userRef
					var keys []string
					for i := rng.Intn(5); i > 0; i-- {
						key := pickResident()
						if key == "" || slices.Contains(keys, key) {
							continue
						}
						victims = append(victims, refOf(key))
						keys = append(keys, key)
					}
					for i, u := range r.snapshots(victims) {
						if u != resident[keys[i]].snap {
							t.Fatalf("snapshot of %s = %+v, want %+v", keys[i], u, resident[keys[i]].snap)
						}
						spilled[u.ID] = u
					}
					r.evict(victims)
					for _, key := range keys {
						freeSlots = append(freeSlots, resident[key].slot)
						delete(resident, key)
					}
				case op < 93:
					exp := r.export()
					checkExport(t, exp, resident)
					r = newRegistry(1, 0)
					if err := r.restore(exp); err != nil {
						t.Fatal(err)
					}
					for i, u := range exp {
						resident[u.ID].slot = int32(i)
					}
					freeSlots, nextSlot = nil, int32(len(exp))
				default:
					window++
				}
				checkRegistry(t, r, resident, known)
				maxCells = max(maxCells, len(r.index))
			}
			checkExport(t, r.export(), resident)
			if maxCells < 16*minIndexCells {
				t.Fatalf("index peaked at %d cells: fewer than four doublings exercised", maxCells)
			}
		})
	}
}

// checkRegistry asserts the slot table against the model: every resident
// ID is found at its slot by both lookups, no other known ID is found,
// every index cell is accounted for, and the load stays ≤ 3/4.
func checkRegistry(t *testing.T, r *registry, resident map[string]*modelUser, known []string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live != len(resident) {
		t.Fatalf("live = %d, model holds %d", r.live, len(resident))
	}
	if r.live*4 > len(r.index)*3 {
		t.Fatalf("load %d/%d above 3/4", r.live, len(r.index))
	}
	cells := 0
	for _, s := range r.index {
		if s != 0 {
			cells++
		}
	}
	if cells != r.live {
		t.Fatalf("index holds %d entries for %d resident users", cells, r.live)
	}
	for _, key := range known {
		c, cb := r.cellOf(key), r.cellOfBytes([]byte(key))
		if c != cb {
			t.Fatalf("%s: cellOf %d, cellOfBytes %d", key, c, cb)
		}
		m := resident[key]
		switch {
		case m == nil && c >= 0:
			t.Fatalf("non-resident %s found in cell %d", key, c)
		case m != nil && c < 0:
			t.Fatalf("resident %s not found", key)
		case m != nil && (r.index[c]-1 != m.slot || r.recs[m.slot].id != key):
			t.Fatalf("%s found at slot %d (record %q), want slot %d", key, r.index[c]-1, r.recs[m.slot].id, m.slot)
		}
	}
}

// checkExport asserts that export lists exactly the model's resident
// users, in slot order, with their bookkeeping.
func checkExport(t *testing.T, exp []UserSnapshot, resident map[string]*modelUser) {
	t.Helper()
	want := make([]*modelUser, 0, len(resident))
	for _, m := range resident {
		want = append(want, m)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].slot < want[j].slot })
	if len(exp) != len(want) {
		t.Fatalf("export holds %d users, model %d", len(exp), len(want))
	}
	for i, m := range want {
		if exp[i] != m.snap {
			t.Fatalf("export[%d] = %+v, want %+v (slot %d)", i, exp[i], m.snap, m.slot)
		}
	}
}

// TestRegistryBytesPerUser bounds what a resident user costs the
// registry — record, index cells and slice growth slack, their ID
// excluded — by the live-heap delta of admitting n users.
func TestRegistryBytesPerUser(t *testing.T) {
	const limit = 80.0
	for _, n := range []int{2500, 4000, 8000} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("u%06d", i)
		}
		// The least of three attempts discounts allocations by goroutines
		// other tests left running; the second collection before the
		// baseline empties sync.Pool victim caches, which would otherwise
		// be freed inside the measured interval.
		best := -1.0
		for attempt := 0; attempt < 3; attempt++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			r := newRegistry(0, 0)
			for _, id := range ids {
				r.getOrCreate(id, 0)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
			runtime.KeepAlive(r)
			if best < 0 || per < best {
				best = per
			}
		}
		runtime.KeepAlive(ids)
		t.Logf("%d users: %.1f B/user", n, best)
		if best > limit {
			t.Errorf("%d users cost %.1f B each, want ≤ %.0f", n, best, limit)
		}
	}
}

// TestWindowCounterLimit pins the int32 bound of the window counter: an
// engine at maxWindow serves its open window but refuses to close it,
// and replay refuses to advance past it.
func TestWindowCounterLimit(t *testing.T) {
	e, err := New(Config{NumObjects: 2, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if err := e.Restore(&EngineState{NumObjects: 2, Window: maxWindow}); err != nil {
		t.Fatal(err)
	}
	if _, w, err := e.Ingest("a", []Claim{{Object: 0, Value: 1}}); err != nil || w != maxWindow+1 {
		t.Fatalf("ingest at the last window: window %d, err %v", w, err)
	}
	if _, err := e.CloseWindow(); !errors.Is(err, ErrBadState) {
		t.Fatalf("CloseWindow at maxWindow: err = %v, want ErrBadState", err)
	}
	if _, err := e.CloseWindowExport(); !errors.Is(err, ErrBadState) {
		t.Fatalf("CloseWindowExport at maxWindow: err = %v, want ErrBadState", err)
	}
	if err := e.ReplayClosesTo(maxWindow + 1); !errors.Is(err, ErrBadState) {
		t.Fatalf("ReplayClosesTo past maxWindow: err = %v, want ErrBadState", err)
	}
	fresh, err := New(Config{NumObjects: 2, NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fresh.Close() }()
	if _, err := fresh.ReplayJournal([]ChargeRecord{{User: "a", Window: maxWindow + 1, Epsilon: 1}}); !errors.Is(err, ErrBadState) {
		t.Fatalf("replaying a record past maxWindow: err = %v, want ErrBadState", err)
	}
}
