package stream

import (
	"math"
	"sync"
)

// Estimator names for Config.Estimator. Each has a batch counterpart in
// internal/truth with the same name, and the streaming implementation
// reproduces it within 1e-9 on a closed undecayed window (property-tested
// in estimator_test.go).
const (
	EstimatorCRH  = "crh"
	EstimatorGTM  = "gtm"
	EstimatorCATD = "catd"
)

// EstimatorNames lists every estimator the engine can run, in the order
// they were introduced. The slice is shared; treat it as read-only.
var EstimatorNames = []string{EstimatorCRH, EstimatorGTM, EstimatorCATD}

// KnownEstimator reports whether name selects a streaming estimator.
func KnownEstimator(name string) bool {
	for _, n := range EstimatorNames {
		if n == name {
			return true
		}
	}
	return false
}

// Estimator is the per-window estimation algorithm behind CloseWindow: it
// folds the frozen, decayed sufficient statistics of one quiesced window
// into per-object truths and per-user weights. Implementations are
// constructed per engine by Config.Estimator and are NOT safe for
// concurrent use on their own — the engine invokes them with the window
// lock held and the shards paused.
//
// The contract is sealed (the methods traffic in the engine's unexported
// window view), so implementations live in this package; the exported
// interface exists to name the concept in snapshots, the wire protocol,
// and documentation.
//
// Estimators are stateless: the carry weights the user registry persists
// (in snapshots, spill records and cluster commits) are their whole
// cross-window memory, handed back in through windowData.weights.
type Estimator interface {
	// Name is the stable identifier recorded in snapshots and surfaced on
	// the wire ("crh", "gtm", "catd").
	Name() string
	// estimate runs the window's iteration loop over w, writing truths
	// (pre-seeded to NaN, covered objects only), weights and claimCount
	// (both indexed by registry user index), and returning the iteration
	// count and convergence flag, mirroring truth.Result.
	estimate(e *Engine, w *windowData) (iterations int, converged bool)
}

// windowData is the frozen view of one window handed to an estimator:
// per-shard statistic views plus pre-allocated output and scratch slices.
type windowData struct {
	views    []*shardView
	numUsers int
	// truths is NaN-initialized, len NumObjects; estimate fills covered
	// objects. covered marks objects with at least one live statistic.
	truths  []float64
	covered []bool
	// weights enters holding the carry weights (the previous window's
	// estimates, or all-ones when carryover is disabled) and leaves
	// holding this window's estimates. claimCount leaves holding each
	// user's live statistic count (0 = silent this window).
	weights    []float64
	claimCount []int
}

// newEstimator constructs the estimator Config.Estimator selects. The
// config must already be validated (the name is known, defaults applied).
func newEstimator(cfg *Config) Estimator {
	switch cfg.Estimator {
	case EstimatorGTM:
		return &gtmEstimator{
			priorMeanWeight: 0.01,
			alpha:           2,
			beta:            1,
		}
	case EstimatorCATD:
		return &catdEstimator{confidence: 0.95}
	default:
		return &crhEstimator{}
	}
}

// foldWeightedTruths evaluates the weighted mean of the effective claims
// per covered object, with non-positive user weights clamped to the
// weight floor exactly as the batch methods do. Shards work their own
// (disjoint) objects in parallel.
func foldWeightedTruths(views []*shardView, weights, truths []float64) {
	var wg sync.WaitGroup
	for _, v := range views {
		wg.Add(1)
		go func(v *shardView) {
			defer wg.Done()
			for i, obj := range v.objects {
				var num, den float64
				for _, c := range v.claims[i] {
					w := weights[c.user]
					if w < weightFloor {
						w = weightFloor
					}
					num += w * c.value
					den += w
				}
				truths[obj] = num / den
			}
		}(v)
	}
	wg.Wait()
}

// countClaims fills claimCount with each user's live statistic count
// across the views.
func countClaims(views []*shardView, claimCount []int) {
	for i := range claimCount {
		claimCount[i] = 0
	}
	for _, v := range views {
		for i := range v.objects {
			for _, c := range v.claims[i] {
				claimCount[c.user]++
			}
		}
	}
}

// sumSquaredResiduals accumulates, per user, the squared distance between
// each effective claim and the current truth of its object: the shards
// accumulate their objects' contributions in parallel, then the partials
// are reduced into ss in shard-index order so the result is deterministic.
// partial must hold one numUsers-sized scratch slice per view.
func sumSquaredResiduals(views []*shardView, truths []float64, partial [][]float64, ss []float64) {
	var wg sync.WaitGroup
	for si, v := range views {
		wg.Add(1)
		go func(v *shardView, acc []float64) {
			defer wg.Done()
			for u := range acc {
				acc[u] = 0
			}
			for i, obj := range v.objects {
				t := truths[obj]
				for _, c := range v.claims[i] {
					d := c.value - t
					acc[c.user] += d * d
				}
			}
		}(v, partial[si])
	}
	wg.Wait()
	for u := range ss {
		ss[u] = 0
		for si := range partial {
			ss[u] += partial[si][u]
		}
	}
}

// userScratch allocates one numUsers-sized float64 scratch slice per view.
func userScratch(views []*shardView, numUsers int) [][]float64 {
	partial := make([][]float64, len(views))
	for i := range partial {
		partial[i] = make([]float64, numUsers)
	}
	return partial
}

// normalizeActiveWeights scales the active users' weights to mean 1
// across the active population (claimCount > 0), leaving silent users'
// weights untouched. It is truth.NormalizeWeights restricted to active
// users: normalizing over every slot would make the scale depend on how
// many silent (or evicted-and-recycled) slots the registry happens to
// hold, and a residency-capped engine would drift from an unbounded one.
func normalizeActiveWeights(ws []float64, claimCount []int) {
	var sum float64
	n := 0
	for u, k := range claimCount {
		if k > 0 {
			sum += ws[u]
			n++
		}
	}
	if n == 0 || sum <= 0 {
		return
	}
	scale := float64(n) / sum
	for u, k := range claimCount {
		if k > 0 {
			ws[u] *= scale
		}
	}
}

// maxAbsDiffCovered is the convergence check restricted to covered
// objects (uncovered truths stay NaN and never converge by comparison).
func maxAbsDiffCovered(a, b []float64, covered []bool) float64 {
	var maxd float64
	for i := range a {
		if !covered[i] {
			continue
		}
		if d := math.Abs(a[i] - b[i]); d > maxd {
			maxd = d
		}
	}
	return maxd
}
