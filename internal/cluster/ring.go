package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent hash ring assigning user IDs to workers. Each
// worker contributes vnodes virtual points (FNV-64a of "worker#i"), so
// load spreads evenly and the assignment is a pure function of the
// worker set — two coordinators (or one across a restart) configured
// with the same workers route every user identically, which is what
// keeps each user's privacy ledger confined to a single worker.
type Ring struct {
	points  []ringPoint
	workers []string
}

type ringPoint struct {
	hash   uint64
	worker string
}

// vnodes is the virtual-node count per worker.
const vnodes = 64

// NewRing builds a ring over the given worker names (base URLs, in a
// cluster). Order does not matter — workers are deduplicated and
// sorted, so any permutation of the same set yields the same ring.
func NewRing(workers []string) (*Ring, error) {
	seen := make(map[string]bool, len(workers))
	var uniq []string
	for _, w := range workers {
		if w == "" {
			return nil, fmt.Errorf("cluster: empty worker name")
		}
		if !seen[w] {
			seen[w] = true
			uniq = append(uniq, w)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one worker")
	}
	sort.Strings(uniq)
	r := &Ring{workers: uniq}
	for _, w := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(w + "#" + strconv.Itoa(i)), worker: w})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between two workers' virtual points must not
		// make ownership depend on sort order: break ties by name.
		return r.points[i].worker < r.points[j].worker
	})
	return r, nil
}

// Owner returns the worker owning the given user ID: the first virtual
// point at or after the ID's hash, wrapping around the ring.
func (r *Ring) Owner(id string) string {
	h := hash64(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].worker
}

// Workers returns the deduplicated, sorted worker set.
func (r *Ring) Workers() []string {
	out := make([]string, len(r.workers))
	copy(out, r.workers)
	return out
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is the murmur3 64-bit finalizer. Raw FNV-64a has almost no
// avalanche on trailing-byte differences, so similar strings
// ("worker#0".."worker#63", "user-000".."user-099") land in one tight
// cluster and the ring degenerates to a single owner; the finalizer
// diffuses every input bit across the whole hash.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
