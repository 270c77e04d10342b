package stream

import (
	"math"
	"slices"
)

// evictFloor is the decayed-mass threshold below which a sufficient
// statistic is dropped; at decay d it bounds the lifetime of an idle
// (object, user) pair to log(evictFloor)/log(d) windows.
const evictFloor = 1e-9

// cell is the exponentially-decayed sufficient statistic of one
// (object, user) pair, as it sits in the user's row: the decayed sum of
// claimed values and the decayed claim mass. The effective claim the
// estimator sees is sum/mass, the decay-weighted mean of everything the
// user ever claimed on the object.
type cell struct {
	object int
	sum    float64
	mass   float64
}

// pauseReq asks a shard worker to quiesce: it closes acquired once all
// earlier batches are applied, then blocks until release is closed,
// leaving the coordinator exclusive access to the shard state.
type pauseReq struct {
	acquired chan struct{}
	release  chan struct{}
}

// shardMsg is one hand-off on a shard's ingestion channel: either a batch
// of claims by one user (ctl nil) or a pause request. When buf is set,
// claims is a pooled slice the worker returns to claimBufPool after
// applying it.
type shardMsg struct {
	user   int
	claims []Claim
	buf    *claimBuf
	ctl    *pauseReq
}

// shard owns the sufficient statistics of the objects hashed to it
// (object % numShards). They are stored user-major: rows[slot] holds the
// live statistics of the user in that registry slot on this shard's
// objects, one contiguous slice of cells kept strictly ascending by
// object. A submission is one user's batch, so a fold touches one row;
// every reader (view, decay, export, eviction) is a linear pass over the
// rows, and because it walks them in slot order, whatever it groups by
// object comes out ascending by slot without sorting. Memory is one cell
// per live statistic plus one slice header per slot — never users ×
// objects. An evicted user's slot is recycled only once its row is empty
// on every shard, so a new occupant starts with no statistics.
//
// The state is mutated only by the worker goroutine (run) or, while
// paused, by the coordinator.
type shard struct {
	in chan shardMsg
	// The shard's objects are index, index+numShards, ...: segments of
	// them, which object/numShards numbers 0, 1, 2, ...
	index, numShards, segments int

	rows [][]cell
	live int // cells across all rows
}

func newShard(queueDepth, index, numShards, numObjects int) *shard {
	return &shard{
		in:        make(chan shardMsg, queueDepth),
		index:     index,
		numShards: numShards,
		segments:  (numObjects - index + numShards - 1) / numShards,
	}
}

// run is the shard worker loop; it exits when the channel closes.
func (s *shard) run() {
	for m := range s.in {
		if m.ctl != nil {
			close(m.ctl.acquired)
			<-m.ctl.release
			continue
		}
		s.apply(m.user, m.claims)
		if m.buf != nil {
			m.buf.claims = m.claims[:0]
			claimBufPool.Put(m.buf)
		}
	}
}

// apply folds one user's batch into their row. A device resends the same
// objects in the same order, so a cursor walking the row finds each claim's
// cell by one comparison; a claim the cursor does not expect (a shuffled
// or repeated object, or one the user never claimed before) falls back to
// a binary search and, when absent, an in-order insert.
func (s *shard) apply(user int, claims []Claim) {
	s.reach(user)
	row := s.rows[user]
	cur := 0
	for i, c := range claims {
		if cur >= len(row) || row[cur].object != c.Object {
			var found bool
			if cur, found = findCell(row, c.Object); !found {
				if len(row) == cap(row) {
					// At most the rest of the batch is new to the row, so
					// a user's first batch sizes their row in one allocation.
					row = slices.Grow(row, len(claims)-i)
				}
				row = slices.Insert(row, cur, cell{object: c.Object})
				s.live++
			}
		}
		row[cur].sum += c.Value
		row[cur].mass++
		cur++
	}
	s.rows[user] = row
}

// put stores a restored statistic. The caller guarantees the pair is not
// already present (validateState refuses a state that repeats one).
func (s *shard) put(user int, c cell) {
	s.reach(user)
	at, _ := findCell(s.rows[user], c.object)
	s.rows[user] = slices.Insert(s.rows[user], at, c)
	s.live++
}

// reach extends the slot table so that rows[user] exists.
func (s *shard) reach(user int) {
	if user >= len(s.rows) {
		s.rows = append(s.rows, make([][]cell, user+1-len(s.rows))...)
	}
}

// findCell returns the position of object's cell in row, or, when there is
// none, the position that keeps the row ascending.
func findCell(row []cell, object int) (int, bool) {
	return slices.BinarySearchFunc(row, object, func(c cell, object int) int { return c.object - object })
}

// decay scales every statistic by the retention factor and evicts the
// ones whose mass fell below the floor, compacting each row in place and
// releasing the rows it empties. Called only while paused.
func (s *shard) decay(factor float64) {
	for slot, row := range s.rows {
		kept := row[:0]
		for _, c := range row {
			c.sum *= factor
			c.mass *= factor
			if c.mass < evictFloor {
				continue
			}
			kept = append(kept, c)
		}
		s.live -= len(row) - len(kept)
		if len(kept) == 0 {
			kept = nil
		}
		s.rows[slot] = kept
	}
}

// row returns the live statistics of the user in slot; the slot table
// only reaches as far as the highest slot that ever claimed here.
func (s *shard) row(slot int) []cell {
	if slot < len(s.rows) {
		return s.rows[slot]
	}
	return nil
}

// uv is one effective claim: the user index and the decay-weighted mean
// value of that user's claims on the object.
type uv struct {
	user  int
	value float64
}

// shardView is the estimator's frozen, sorted view of one shard: covered
// objects in ascending order, each with its effective claims sorted by
// user index, plus the per-object population standard deviation of the
// effective claims (the scale reference of the normalized distance).
type shardView struct {
	objects []int
	claims  [][]uv
	stds    []float64
}

// view materializes the shard's statistics for estimation: it counts the
// cells per object, carves one backing array into a segment per covered
// object, and deals the rows into the segments in slot order — so every
// object's claims ascend by user index, the order every estimator sums
// in, with no sort. Called only while paused.
func (s *shard) view() *shardView {
	// at[seg] first counts the cells of the shard's seg-th object, then
	// holds that object's position in the view.
	at := make([]int, s.segments)
	for _, row := range s.rows {
		for i := range row {
			at[row[i].object/s.numShards]++
		}
	}
	covered := 0
	for _, n := range at {
		if n > 0 {
			covered++
		}
	}
	v := &shardView{
		objects: make([]int, 0, covered),
		claims:  make([][]uv, 0, covered),
		stds:    make([]float64, 0, covered),
	}
	backing := make([]uv, s.live)
	for seg, n := range at {
		if n == 0 {
			continue
		}
		at[seg] = len(v.objects)
		v.objects = append(v.objects, seg*s.numShards+s.index)
		v.claims = append(v.claims, backing[:0:n])
		backing = backing[n:]
	}
	for slot, row := range s.rows {
		for i := range row {
			c := &row[i]
			pos := at[c.object/s.numShards]
			v.claims[pos] = append(v.claims[pos], uv{user: slot, value: c.sum / c.mass})
		}
	}
	for _, cs := range v.claims {
		v.stds = append(v.stds, popStd(cs))
	}
	return v
}

// popStd is the population standard deviation of the effective claims,
// matching truth.Dataset.ObjectStdDevs (objects with one claim get 0).
func popStd(cs []uv) float64 {
	var sum float64
	for _, c := range cs {
		sum += c.value
	}
	mean := sum / float64(len(cs))
	var ss float64
	for _, c := range cs {
		d := c.value - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(cs)))
}
