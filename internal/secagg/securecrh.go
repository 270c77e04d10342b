package secagg

import (
	"fmt"
	"math"

	"pptd/internal/randx"
	"pptd/internal/truth"
)

// SecureCRH runs CRH truth discovery where every aggregation step is a
// secure-sum round: the server never sees a user's readings or weights,
// only masked uploads whose sum yields the weighted numerators and
// denominators per object. Users receive the broadcast truths each round
// and update their own weights locally (as in lightweight crypto-based
// PPTD protocols). It returns the discovered truths and the exact
// communication/computation cost, which is the point of this baseline:
// the same aggregation quality as plain CRH at a protocol cost the
// ablation-cost experiment compares against the paper's mechanism.
//
// Per round, user s uploads a masked vector of width 2N+1:
//
//	[ w_s*x_s0, ..., w_s*x_s(N-1),  w_s*obs_s0, ..., w_s*obs_s(N-1),  d_s ]
//
// where obs_sn is the observation indicator and d_s the previous-round
// distance used for the Eq. 3 weight normalization.
//
// It runs at plain CRH's fixed iteration controls: at most
// truth.DefaultMaxIterations (100) rounds, stopping once the truths move
// less than truth.DefaultTolerance (1e-6).
func SecureCRH(ds *truth.Dataset, rng *randx.RNG) (*truth.Result, Cost, error) {
	if ds == nil {
		return nil, Cost{}, fmt.Errorf("%w: nil dataset", ErrBadParam)
	}
	numUsers := ds.NumUsers()
	numObjects := ds.NumObjects()
	if numUsers < 2 {
		return nil, Cost{}, fmt.Errorf("%w: %d users (need >= 2)", ErrBadParam, numUsers)
	}

	agg, err := NewAggregator(numUsers, rng)
	if err != nil {
		return nil, Cost{}, err
	}

	// Client-side state (one slot per user); the server sees none of it.
	type client struct {
		values  []float64 // readings by object (0 where unobserved)
		mask    []float64 // observation indicator
		weight  float64
		dist    float64
		numObs  int
		entries int
	}
	clients := make([]client, numUsers)
	for s := 0; s < numUsers; s++ {
		c := client{
			values: make([]float64, numObjects),
			mask:   make([]float64, numObjects),
			weight: 1,
			dist:   0,
		}
		obs, err := ds.UserObservations(s)
		if err != nil {
			return nil, Cost{}, fmt.Errorf("secagg: secure crh: %w", err)
		}
		for _, o := range obs {
			c.values[o.Object] = o.Value
			c.mask[o.Object] = 1
		}
		c.numObs = len(obs)
		clients[s] = c
	}

	const (
		distFloor = 1e-9
		wFloor    = 1e-9
	)
	truths := make([]float64, numObjects)
	prev := make([]float64, numObjects)
	res := &truth.Result{Truths: truths}
	width := 2*numObjects + 1
	upload := make([][]float64, numUsers)
	for s := range upload {
		upload[s] = make([]float64, width)
	}

	// The distance normalizer arrives with the *next* round's sums, so
	// estimated weights first influence the aggregation in round 3;
	// convergence is only meaningful once that has happened.
	weightsApplied := false
	for iter := 1; iter <= truth.DefaultMaxIterations; iter++ {
		res.Iterations = iter
		// Each client assembles its weighted upload.
		for s := range clients {
			c := &clients[s]
			w := c.weight
			if w < wFloor {
				w = wFloor
			}
			row := upload[s]
			for n := 0; n < numObjects; n++ {
				row[n] = w * c.values[n] * c.mask[n]
				row[numObjects+n] = w * c.mask[n]
			}
			row[2*numObjects] = c.dist
		}
		sums, err := agg.Sum(upload)
		if err != nil {
			return nil, Cost{}, err
		}
		copy(prev, truths)
		for n := 0; n < numObjects; n++ {
			den := sums[numObjects+n]
			if den < wFloor {
				den = wFloor
			}
			truths[n] = sums[n] / den
		}
		totalDist := sums[2*numObjects]

		if weightsApplied && maxAbsDiff(prev, truths) < truth.DefaultTolerance {
			res.Converged = true
			break
		}

		// Broadcast truths; clients update distances and weights locally.
		weightsUpdated := false
		for s := range clients {
			c := &clients[s]
			if c.numObs == 0 {
				c.weight = 0
				continue
			}
			var d float64
			for n := 0; n < numObjects; n++ {
				if c.mask[n] == 0 {
					continue
				}
				diff := c.values[n] - truths[n]
				d += diff * diff
			}
			d /= float64(c.numObs)
			if d < distFloor {
				d = distFloor
			}
			c.dist = d
			if totalDist > 0 {
				w := -math.Log(c.dist / totalDist)
				if w < 0 {
					w = 0
				}
				c.weight = w
				weightsUpdated = true
			}
		}
		if weightsUpdated {
			// The next round's uploads carry estimated weights.
			weightsApplied = true
		}
	}

	weights := make([]float64, numUsers)
	for s := range clients {
		weights[s] = clients[s].weight
	}
	res.Weights = weights
	return res, agg.Cost(), nil
}

func maxAbsDiff(a, b []float64) float64 {
	var maxd float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > maxd {
			maxd = d
		}
	}
	return maxd
}
