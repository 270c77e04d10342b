package stream

import "pptd/internal/truth"

// catdEstimator is the confidence-aware method of Li et al. (VLDB'15)
// (truth.CATD) run incrementally: each user's weight is the upper
// chi-squared confidence bound on their error precision,
// Chi2Quantile(confidence, k_s) / ss_s, normalized to mean 1 across the
// registry. Like its batch counterpart it restarts from uniform weights
// every window — the claim counts and residuals it weighs by are already
// carried by the decayed sufficient statistics — so it keeps no private
// cross-window state. Its confidence is the batch method's
// (truth.CATDConfidence).
type catdEstimator struct{}

func (catdEstimator) Name() string { return EstimatorCATD }

func (catdEstimator) estimate(e *Engine, w *windowData) (int, bool) {
	countClaims(w.views, w.claimCount)
	quantile := make([]float64, w.numUsers)
	for u, k := range w.claimCount {
		w.weights[u] = 1
		if k > 0 {
			quantile[u] = truth.Chi2Quantile(truth.CATDConfidence, float64(k))
		}
	}

	partial := userScratch(w.views, w.numUsers)
	ss := make([]float64, w.numUsers)
	prev := make([]float64, e.cfg.NumObjects)

	foldWeightedTruths(w.views, w.weights, w.truths)
	iterations := 0
	for iter := 1; iter <= truth.DefaultMaxIterations; iter++ {
		iterations = iter
		sumSquaredResiduals(w.views, w.truths, partial, ss)
		for u, k := range w.claimCount {
			if k == 0 {
				w.weights[u] = 0
				continue
			}
			s := ss[u]
			if s < distFloor {
				s = distFloor
			}
			w.weights[u] = quantile[u] / s
		}
		// Weights are scale-free ratios; normalize to mean 1 over the
		// active users so the floor in foldWeightedTruths stays negligible
		// and reports are comparable. Active-only: silent and evicted
		// slots carry 0 and must not skew the scale, or a residency-capped
		// engine would drift from an unbounded one.
		normalizeActiveWeights(w.weights, w.claimCount)
		copy(prev, w.truths)
		foldWeightedTruths(w.views, w.weights, w.truths)
		if maxAbsDiffCovered(prev, w.truths, w.covered) < truth.DefaultTolerance {
			return iterations, true
		}
	}
	return iterations, false
}
