package truth

import (
	"fmt"
	"math"
)

// CRH implements the Conflict Resolution on Heterogeneous data framework of
// Li et al. (SIGMOD'14) for continuous claims — the truth-discovery method
// the paper instantiates in Eq. (3):
//
//	w_s = -log( d_s / sum_{s'} d_{s'} ),  d_s = sum_n d(x_sn, x*_n)
//
// alternated with the weighted aggregation of Eq. (1) until the truths
// stabilize. A per-user distance is averaged over the user's observed
// objects so sparsely participating users are not over-penalized.
type CRH struct {
	cfg      iterConfig
	distance Distance
}

var _ Method = (*CRH)(nil)

// CRHOption configures NewCRH.
type CRHOption interface {
	applyCRH(*CRH)
}

type crhOptionFunc func(*CRH)

func (f crhOptionFunc) applyCRH(c *CRH) { f(c) }

// WithCRHDistance selects the claim-to-truth distance (default
// NormalizedSquaredDistance, CRH's scale-free choice).
func WithCRHDistance(d Distance) CRHOption {
	return crhOptionFunc(func(c *CRH) { c.distance = d })
}

// WithCRHTolerance sets the convergence tolerance on the maximum truth
// change (default DefaultTolerance).
func WithCRHTolerance(tol float64) CRHOption {
	return crhOptionFunc(func(c *CRH) { c.cfg.tolerance = tol })
}

// WithCRHMaxIterations caps the iteration count (default
// DefaultMaxIterations).
func WithCRHMaxIterations(n int) CRHOption {
	return crhOptionFunc(func(c *CRH) { c.cfg.maxIterations = n })
}

// WithCRHFailOnNonConvergence makes Run return an error wrapping
// ErrNotConverged when the cap is hit; by default the last iterate is
// returned with Converged=false.
func WithCRHFailOnNonConvergence() CRHOption {
	return crhOptionFunc(func(c *CRH) { c.cfg.failOnNoConv = true })
}

// NewCRH returns a configured CRH method.
func NewCRH(opts ...CRHOption) (*CRH, error) {
	c := &CRH{
		cfg:      defaultIterConfig(),
		distance: NormalizedSquaredDistance,
	}
	for _, o := range opts {
		o.applyCRH(c)
	}
	if err := c.cfg.validate(); err != nil {
		return nil, err
	}
	if !c.distance.valid() {
		return nil, fmt.Errorf("truth: unknown distance %v", c.distance)
	}
	return c, nil
}

// Name implements Method.
func (c *CRH) Name() string { return "crh" }

// Run implements Method following Algorithm 1 of the paper: initialize
// uniform weights, then alternate aggregation (Eq. 1) and weight
// estimation (Eq. 3) until the truths move less than the tolerance.
func (c *CRH) Run(ds *Dataset) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadIndex)
	}
	var (
		numUsers = ds.NumUsers()
		numObjs  = ds.NumObjects()
		weights  = make([]float64, numUsers)
		truths   = make([]float64, numObjs)
		prev     = make([]float64, numObjs)
	)
	for s := range weights {
		weights[s] = 1
	}
	// Scale reference for the normalized distance; recomputed once, from
	// the claims themselves (the truths move within the claim range).
	stds := ds.ObjectStdDevs()

	weightedTruths(ds, weights, truths)
	res := &Result{Truths: truths, Weights: weights}
	for iter := 1; iter <= c.cfg.maxIterations; iter++ {
		res.Iterations = iter
		c.updateWeights(ds, truths, stds, weights)
		copy(prev, truths)
		weightedTruths(ds, weights, truths)
		if maxAbsDiff(prev, truths) < c.cfg.tolerance {
			res.Converged = true
			break
		}
	}
	if !res.Converged && c.cfg.failOnNoConv {
		return nil, fmt.Errorf("%w: crh after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}

// updateWeights computes Eq. (3) with per-user mean distances.
func (c *CRH) updateWeights(ds *Dataset, truths, stds, weights []float64) {
	const (
		// distFloor keeps log arguments finite for users that agree
		// perfectly with the truths.
		distFloor = 1e-12
		// stdFloor avoids division by zero for constant objects.
		stdFloor = 1e-9
	)
	dists := make([]float64, len(weights))
	var total float64
	for s, claims := range ds.byUser {
		if len(claims) == 0 {
			dists[s] = math.NaN()
			continue
		}
		var d float64
		for _, ov := range claims {
			diff := ov.value - truths[ov.object]
			switch c.distance {
			case AbsoluteDistance:
				d += math.Abs(diff)
			case NormalizedSquaredDistance:
				std := stds[ov.object]
				if std < stdFloor {
					std = stdFloor
				}
				d += diff * diff / std
			default: // SquaredDistance
				d += diff * diff
			}
		}
		d /= float64(len(claims))
		if d < distFloor {
			d = distFloor
		}
		dists[s] = d
		total += d
	}
	if total <= 0 {
		total = distFloor
	}
	for s := range weights {
		if math.IsNaN(dists[s]) {
			weights[s] = 0 // user contributed nothing
			continue
		}
		w := -math.Log(dists[s] / total)
		if w <= 0 {
			// A single user dominating the total distance can push the
			// ratio above 1, and a lone user's is -log(1) = -0; clamp so
			// weights stay non-negative and never print as "-0".
			w = 0
		}
		weights[s] = w
	}
}
