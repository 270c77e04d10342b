package truth

import (
	"fmt"
	"math"
)

// CATD implements a confidence-aware truth-discovery method in the style
// of Li et al. (VLDB'15): user weights are the upper bound of the
// chi-squared confidence interval on the user's error precision,
//
//	w_s = Chi2Quantile(confidence, k_s) / sum_n (x_sn - x*_n)^2
//
// where k_s is the number of claims by user s. Compared with CRH this
// boosts users with many observations (their precision estimate is more
// trustworthy), which matters on long-tail crowd sensing data. It is an
// extension beyond the paper's two evaluated methods, included to support
// the claim that the mechanism works with any weighted-aggregation method.
type CATD struct{}

var _ Method = (*CATD)(nil)

// NewCATD returns CATD at its fixed parameters: confidence
// CATDConfidence (0.95), tolerance DefaultTolerance (1e-6) and at most
// DefaultMaxIterations (100) iterations. It never fails.
func NewCATD() (*CATD, error) { return &CATD{}, nil }

// Name implements Method.
func (*CATD) Name() string { return "catd" }

// Run implements Method.
func (*CATD) Run(ds *Dataset) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadIndex)
	}
	const distFloor = 1e-12

	var (
		numUsers = ds.NumUsers()
		numObjs  = ds.NumObjects()
		weights  = make([]float64, numUsers)
		truths   = make([]float64, numObjs)
		prev     = make([]float64, numObjs)
		quantile = make([]float64, numUsers)
	)
	for s := range weights {
		weights[s] = 1
	}
	for s, claims := range ds.byUser {
		if len(claims) > 0 {
			quantile[s] = Chi2Quantile(CATDConfidence, float64(len(claims)))
		}
	}

	weightedTruths(ds, weights, truths)
	res := &Result{Truths: truths, Weights: weights}
	for iter := 1; iter <= DefaultMaxIterations; iter++ {
		res.Iterations = iter
		for s, claims := range ds.byUser {
			if len(claims) == 0 {
				weights[s] = 0
				continue
			}
			var ss float64
			for _, ov := range claims {
				d := ov.value - truths[ov.object]
				ss += d * d
			}
			if ss < distFloor {
				ss = distFloor
			}
			weights[s] = quantile[s] / ss
		}
		// Weights are scale-free ratios; normalize to mean 1 so the floor
		// in weightedTruths stays negligible and reports are comparable.
		NormalizeWeights(weights)
		copy(prev, truths)
		weightedTruths(ds, weights, truths)
		if maxAbsDiff(prev, truths) < DefaultTolerance {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// Chi2Quantile approximates the chi-squared quantile with k degrees of
// freedom via the Wilson–Hilferty cube transformation, which is accurate
// to a few percent for k >= 1 — ample for weight ratios. It is exported
// so the streaming CATD estimator (internal/stream) computes bit-identical
// weights to this batch method.
func Chi2Quantile(p, k float64) float64 {
	z := stdNormalQuantile(p)
	a := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * a * a * a
}

// stdNormalQuantile inverts the standard normal CDF by bisection on
// math.Erf — slow but dependency-free, and called once per user.
func stdNormalQuantile(p float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if 0.5*(1+math.Erf(mid/math.Sqrt2)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
