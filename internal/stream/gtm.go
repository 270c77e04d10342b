package stream

import (
	"sync"

	"pptd/internal/truth"
)

// gtmVarianceFloor matches the batch GTM's variance floor (truth.GTM).
const gtmVarianceFloor = 1e-9

// gtmEstimator is the Gaussian Truth Model (truth.GTM) run incrementally:
// an EM-style alternation of posterior-mean truths (given per-user
// variances, with the per-object mean of the effective claims acting as
// a weak truth prior) and MAP variances under an inverse-Gamma prior.
// Reported weights are the precisions 1/sigma_s^2.
//
// It keeps no private state: the precisions it reports are the carry
// weights the registry persists, so the next window warm-starts from
// them (or from all ones, the unit initial variance, when carryover is
// disabled) exactly as if GTM kept the variance vector itself. Its priors
// are the batch method's constants (truth.GTMTruthPriorWeight,
// truth.GTMPriorAlpha, truth.GTMPriorBeta).
type gtmEstimator struct{}

func (gtmEstimator) Name() string { return EstimatorGTM }

func (g gtmEstimator) estimate(e *Engine, w *windowData) (int, bool) {
	// prec enters holding the carry weights: the precisions of the last
	// window that estimated each user. Silent users keep theirs.
	prec := w.weights
	countClaims(w.views, w.claimCount)

	// Truth prior and initialization: the per-object mean of the effective
	// claims (the streaming analog of Dataset.ObjectMeans).
	priorMeans := make([]float64, e.cfg.NumObjects)
	g.objectMeans(w.views, priorMeans)
	for n, ok := range w.covered {
		if ok {
			w.truths[n] = priorMeans[n]
		}
	}

	partial := userScratch(w.views, w.numUsers)
	ss := make([]float64, w.numUsers)
	prev := make([]float64, e.cfg.NumObjects)

	iterations := 0
	converged := false
	for iter := 1; iter <= truth.DefaultMaxIterations; iter++ {
		iterations = iter

		// E-step: posterior-mean truths given precisions. Shards own
		// disjoint objects, so prev/truths writes never collide.
		var wg sync.WaitGroup
		for _, v := range w.views {
			wg.Add(1)
			go func(v *shardView) {
				defer wg.Done()
				for i, obj := range v.objects {
					num := truth.GTMTruthPriorWeight * priorMeans[obj]
					den := truth.GTMTruthPriorWeight
					for _, c := range v.claims[i] {
						num += prec[c.user] * c.value
						den += prec[c.user]
					}
					prev[obj] = w.truths[obj]
					w.truths[obj] = num / den
				}
			}(v)
		}
		wg.Wait()

		// M-step: MAP user variances given truths, under the
		// inverse-Gamma(alpha, beta) prior.
		sumSquaredResiduals(w.views, w.truths, partial, ss)
		for u, k := range w.claimCount {
			if k == 0 {
				continue
			}
			v := (2*truth.GTMPriorBeta + ss[u]) / (2*(truth.GTMPriorAlpha+1) + float64(k))
			if v < gtmVarianceFloor {
				v = gtmVarianceFloor
			}
			prec[u] = 1 / v
		}

		if maxAbsDiffCovered(prev, w.truths, w.covered) < truth.DefaultTolerance {
			converged = true
			break
		}
	}

	for u, k := range w.claimCount {
		if k == 0 {
			prec[u] = 0
		}
	}
	return iterations, converged
}

// objectMeans fills means with each covered object's plain mean of the
// effective claims; uncovered objects are left untouched.
func (gtmEstimator) objectMeans(views []*shardView, means []float64) {
	var wg sync.WaitGroup
	for _, v := range views {
		wg.Add(1)
		go func(v *shardView) {
			defer wg.Done()
			for i, obj := range v.objects {
				var sum float64
				for _, c := range v.claims[i] {
					sum += c.value
				}
				means[obj] = sum / float64(len(v.claims[i]))
			}
		}(v)
	}
	wg.Wait()
}
