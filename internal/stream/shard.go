package stream

import (
	"encoding/binary"
	"math"
	"slices"
)

// evictFloor is the decayed-mass threshold below which a sufficient
// statistic is dropped; at decay d it bounds the lifetime of an idle
// (object, user) pair to log(evictFloor)/log(d) windows.
const evictFloor = 1e-9

// cell is the exponentially-decayed sufficient statistic of one
// (object, user) pair: the decayed sum of claimed values and the decayed
// claim mass. The effective claim the estimator sees is sum/mass, the
// decay-weighted mean of everything the user ever claimed on the object.
// A row stores it packed (see row); cell is its unpacked value.
type cell struct {
	object int
	sum    float64
	mass   float64
}

// cellSize is the bytes one statistic takes in a row: sum and mass as
// little-endian float64 bits, then the object as a little-endian uint32
// (Config.Validate caps NumObjects to fit).
const cellSize = 20

// row is one user's live statistics on one shard: cellSize-byte records
// packed back to back, strictly ascending by object. Readers walk it by
// byte offset, off += cellSize. Holding no pointers, a row is one
// allocation the garbage collector never scans.
type row []byte

// object returns the object of the record at byte offset off.
func (r row) object(off int) int {
	return int(binary.LittleEndian.Uint32(r[off+16 : off+cellSize]))
}

// at unpacks the record at byte offset off.
func (r row) at(off int) cell {
	b := r[off : off+cellSize]
	return cell{
		object: int(binary.LittleEndian.Uint32(b[16:])),
		sum:    math.Float64frombits(binary.LittleEndian.Uint64(b)),
		mass:   math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

// set packs c into the record at byte offset off.
func (r row) set(off int, c cell) {
	b := r[off : off+cellSize]
	binary.LittleEndian.PutUint64(b, math.Float64bits(c.sum))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(c.mass))
	binary.LittleEndian.PutUint32(b[16:], uint32(c.object))
}

// fold adds one claimed value to the record at byte offset off: the value
// to its sum, one to its mass.
func (r row) fold(off int, v float64) {
	b := r[off : off+16]
	binary.LittleEndian.PutUint64(b, math.Float64bits(math.Float64frombits(binary.LittleEndian.Uint64(b))+v))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))+1))
}

// find returns the byte offset of object's record, or, when there is
// none, the offset that keeps the row ascending.
func (r row) find(object int) (int, bool) {
	lo, hi := 0, len(r)/cellSize
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.object(mid*cellSize) < object {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	off := lo * cellSize
	return off, off < len(r) && r.object(off) == object
}

// blankCell is the room a new record is inserted into before set fills
// it in.
var blankCell [cellSize]byte

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
// objects, one packed row kept strictly ascending by object. A submission
// is one user's batch, so a fold touches one row; every reader (view,
// decay, export, eviction) is a linear pass over the rows, and because it
// walks them in slot order, whatever it groups by object comes out
// ascending by slot without sorting. Memory is one cellSize record per
// live statistic plus one slice header per slot — never users × objects.
// An evicted user's slot is recycled only once its row is empty on every
// shard, so a new occupant starts with no statistics.
//
// The state is mutated only by the worker goroutine (run) or, while
// paused, by the coordinator.
type shard struct {
	in chan shardMsg
	// The shard's objects are index, index+numShards, ...: segments of
	// them, which object/numShards numbers 0, 1, 2, ...
	index, numShards, segments int

	rows []row
	live int // records across all rows
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
// record by one comparison; a claim the cursor does not expect (a shuffled
// or repeated object, or one the user never claimed before) falls back to
// a binary search and, when absent, an in-order insert. The cursor is a
// byte offset, advanced by cellSize per claim.
func (s *shard) apply(user int, claims []Claim) {
	s.reach(user)
	r := s.rows[user]
	off := 0
	for i, c := range claims {
		if off >= len(r) || r.object(off) != c.Object {
			var found bool
			if off, found = r.find(c.Object); !found {
				if cap(r)-len(r) < cellSize {
					// At most the rest of the batch is new to the row, so
					// a user's first batch sizes their row in one
					// allocation; a row that keeps growing doubles.
					grown := make(row, len(r), max(len(r)+(len(claims)-i)*cellSize, 2*cap(r)))
					copy(grown, r)
					r = grown
				}
				r = slices.Insert(r, off, blankCell[:]...)
				r.set(off, cell{object: c.Object})
				s.live++
			}
		}
		r.fold(off, c.Value)
		off += cellSize
	}
	s.rows[user] = r
}

// reserve gives every slot's row exact room for counts[slot] records, so
// the puts of a Restore fill each row without growing it. Called on a
// shard that holds no statistics yet.
func (s *shard) reserve(counts []int) {
	for slot, n := range counts {
		if n > 0 {
			s.reach(slot)
			s.rows[slot] = make(row, 0, n*cellSize)
		}
	}
}

// put stores a restored statistic. The caller guarantees the pair is not
// already present (validateState refuses a state that repeats one).
func (s *shard) put(user int, c cell) {
	s.reach(user)
	off, _ := s.rows[user].find(c.object)
	r := slices.Insert(s.rows[user], off, blankCell[:]...)
	r.set(off, c)
	s.rows[user] = r
	s.live++
}

// reach extends the slot table so that rows[user] exists.
func (s *shard) reach(user int) {
	if user >= len(s.rows) {
		s.rows = append(s.rows, make([]row, user+1-len(s.rows))...)
	}
}

// decay scales every statistic by the retention factor and evicts the
// ones whose mass fell below the floor, compacting each row in place and
// releasing the rows it empties. Called only while paused.
func (s *shard) decay(factor float64) {
	for slot, r := range s.rows {
		kept := 0
		for off := 0; off < len(r); off += cellSize {
			c := r.at(off)
			c.sum *= factor
			c.mass *= factor
			if c.mass < evictFloor {
				continue
			}
			r.set(kept, c)
			kept += cellSize
		}
		s.live -= (len(r) - kept) / cellSize
		if kept == 0 {
			r = nil
		}
		s.rows[slot] = r[:kept]
	}
}

// row returns the live statistics of the user in slot; the slot table
// only reaches as far as the highest slot that ever claimed here.
func (s *shard) row(slot int) row {
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
// records per object, carves one backing array into a segment per covered
// object, and deals the rows into the segments in slot order — so every
// object's claims ascend by user index, the order every estimator sums
// in, with no sort. Called only while paused.
func (s *shard) view() *shardView {
	// at[seg] first counts the records of the shard's seg-th object, then
	// holds that object's position in the view.
	at := make([]int, s.segments)
	for _, r := range s.rows {
		for off := 0; off < len(r); off += cellSize {
			at[r.object(off)/s.numShards]++
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
	for slot, r := range s.rows {
		for off := 0; off < len(r); off += cellSize {
			c := r.at(off)
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
