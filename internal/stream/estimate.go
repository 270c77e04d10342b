package stream

import (
	"math"
	"sync"
	"time"

	"pptd/internal/truth"
)

// Floors shared with the batch estimators (internal/truth); keeping them
// identical is what makes the closed-window equivalence property hold.
const (
	distFloor   = 1e-12
	stdFloor    = 1e-9
	weightFloor = 1e-12
)

// estimateLocked runs the per-window estimation through the configured
// Estimator: it freezes a view of every shard's live statistics, seeds
// the outputs (NaN truths, covered mask, carry weights), delegates the
// iteration loop, and folds the estimator's per-index weights back into
// the ID-keyed result plus the carry registry. Callers must hold e.mu
// exclusively with the shards paused.
func (e *Engine) estimateLocked() (*WindowResult, error) {
	// Per-user slices are indexed by slot, so they span the whole slot
	// space including free holes (nothing references a hole: eviction
	// requires fully decayed statistics, so holes never appear in views).
	numUsers := e.users.slots()
	if numUsers == 0 {
		return nil, ErrEmptyWindow
	}

	views := make([]*shardView, len(e.shards))
	e.eachShardParallelIndexed(func(i int, s *shard) { views[i] = s.view() })

	truths := make([]float64, e.cfg.NumObjects)
	covered := make([]bool, e.cfg.NumObjects)
	anyCovered := false
	for n := range truths {
		truths[n] = math.NaN()
	}
	for _, v := range views {
		for _, obj := range v.objects {
			covered[obj] = true
			anyCovered = true
		}
	}
	if !anyCovered {
		return nil, ErrEmptyWindow
	}

	w := &windowData{
		views:      views,
		numUsers:   numUsers,
		truths:     truths,
		covered:    covered,
		weights:    e.users.carryWeights(e.cfg.DisableCarryover),
		claimCount: make([]int, numUsers),
	}
	start := time.Now()
	iters, converged := e.est.estimate(e, w)
	e.metrics.estimated(iters, time.Since(start))

	res := &WindowResult{
		Estimator:  e.cfg.Estimator,
		Truths:     truths,
		Covered:    covered,
		Iterations: iters,
		Converged:  converged,
	}
	for _, n := range w.claimCount {
		if n > 0 {
			res.ActiveUsers++
		}
	}
	res.Weights = make(map[string]float64, res.ActiveUsers)
	ids := e.users.ids()
	var sum, sumSq, maxW float64
	for u, n := range w.claimCount {
		if n > 0 {
			wt := w.weights[u]
			res.Weights[ids[u]] = wt
			sum += wt
			sumSq += wt * wt
			maxW = math.Max(maxW, wt)
		}
	}
	if sumSq > 0 {
		res.EffectiveUsers = sum * sum / sumSq
		res.MaxWeightShare = maxW / sum
	}
	e.users.updateCarry(w.weights, w.claimCount, e.window+1)
	return res, nil
}

// crhEstimator is the CRH update equations (truth.CRH) run incrementally:
// truths as weighted means (Eq. 1), weights as negative log distance
// ratios over the per-user mean distance (Eq. 3), warm-started from the
// carry weights. It keeps no private state — the carry weights in the
// user registry (persisted per user in UserSnapshot.Carry) are its whole
// cross-window memory.
type crhEstimator struct{}

func (crhEstimator) Name() string { return EstimatorCRH }

func (c crhEstimator) estimate(e *Engine, w *windowData) (int, bool) {
	// Per-shard scratch for the distance reduction: each shard accumulates
	// its objects' contribution to every user's distance, then the shards
	// are reduced in index order so the result is deterministic.
	partial := userScratch(w.views, w.numUsers)
	counts := make([][]int, len(w.views))
	for i := range counts {
		counts[i] = make([]int, w.numUsers)
	}
	dists := make([]float64, w.numUsers)
	prev := make([]float64, e.cfg.NumObjects)

	foldWeightedTruths(w.views, w.weights, w.truths)
	iterations := 0
	for iter := 1; iter <= truth.DefaultMaxIterations; iter++ {
		iterations = iter
		c.updateWeights(w, dists, partial, counts)
		copy(prev, w.truths)
		foldWeightedTruths(w.views, w.weights, w.truths)
		if maxAbsDiffCovered(prev, w.truths, w.covered) < truth.DefaultTolerance {
			return iterations, true
		}
	}
	return iterations, false
}

// updateWeights evaluates Eq. (3): per-user mean distance between the
// effective claims and the current truths, then w = -log(d/total),
// clamped non-negative. Shards accumulate their objects' distance
// contributions in parallel; the reduction and the weight update run on
// the coordinator in user order, mirroring the batch loop.
func (crhEstimator) updateWeights(w *windowData, dists []float64, partial [][]float64, counts [][]int) {
	var wg sync.WaitGroup
	for si, v := range w.views {
		wg.Add(1)
		go func(v *shardView, dSum []float64, dCnt []int) {
			defer wg.Done()
			for u := range dSum {
				dSum[u] = 0
				dCnt[u] = 0
			}
			for i, obj := range v.objects {
				t := w.truths[obj]
				std := v.stds[i]
				if std < stdFloor {
					std = stdFloor
				}
				for _, c := range v.claims[i] {
					diff := c.value - t
					dSum[c.user] += diff * diff / std
					dCnt[c.user]++
				}
			}
		}(v, partial[si], counts[si])
	}
	wg.Wait()

	var total float64
	for u := range dists {
		var d float64
		var n int
		for si := range partial {
			d += partial[si][u]
			n += counts[si][u]
		}
		w.claimCount[u] = n
		if n == 0 {
			dists[u] = math.NaN()
			continue
		}
		d /= float64(n)
		if d < distFloor {
			d = distFloor
		}
		dists[u] = d
		total += d
	}
	if total <= 0 {
		total = distFloor
	}
	for u := range w.weights {
		if math.IsNaN(dists[u]) {
			w.weights[u] = 0
			continue
		}
		wt := -math.Log(dists[u] / total)
		if wt < 0 {
			wt = 0
		}
		w.weights[u] = wt
	}
}

// eachShardParallelIndexed is eachShardParallel with the shard index.
func (e *Engine) eachShardParallelIndexed(fn func(int, *shard)) {
	var wg sync.WaitGroup
	for i, s := range e.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			fn(i, s)
		}(i, s)
	}
	wg.Wait()
}
