package stream

import (
	"encoding/json"
	"fmt"
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
// Its private cross-window state is the per-user variance vector: it
// warm-starts the next window (unless carryover is disabled, which
// resets to initVariance every window) and rides snapshots through
// exportState/restoreState keyed by user ID.
type gtmEstimator struct {
	priorMeanWeight float64
	alpha, beta     float64
	initVariance    float64

	// variances is indexed by registry user index and grown on demand;
	// users the estimator has not seen start at initVariance.
	variances []float64
}

func (*gtmEstimator) Name() string { return EstimatorGTM }

func (g *gtmEstimator) estimate(e *Engine, w *windowData) (int, bool) {
	for len(g.variances) < w.numUsers {
		g.variances = append(g.variances, g.initVariance)
	}
	variances := g.variances
	if e.cfg.DisableCarryover {
		for i := range variances {
			variances[i] = g.initVariance
		}
	}
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

		// E-step: posterior-mean truths given variances. Shards own
		// disjoint objects, so prev/truths writes never collide.
		var wg sync.WaitGroup
		for _, v := range w.views {
			wg.Add(1)
			go func(v *shardView) {
				defer wg.Done()
				for i, obj := range v.objects {
					num := g.priorMeanWeight * priorMeans[obj]
					den := g.priorMeanWeight
					for _, c := range v.claims[i] {
						prec := 1 / variances[c.user]
						num += prec * c.value
						den += prec
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
			v := (2*g.beta + ss[u]) / (2*(g.alpha+1) + float64(k))
			if v < gtmVarianceFloor {
				v = gtmVarianceFloor
			}
			variances[u] = v
		}

		if maxAbsDiffCovered(prev, w.truths, w.covered) < truth.DefaultTolerance {
			converged = true
			break
		}
	}

	for u, k := range w.claimCount {
		if k == 0 {
			w.weights[u] = 0
			continue
		}
		w.weights[u] = 1 / variances[u]
	}
	return iterations, converged
}

// objectMeans fills means with each covered object's plain mean of the
// effective claims; uncovered objects are left untouched.
func (*gtmEstimator) objectMeans(views []*shardView, means []float64) {
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

// gtmState is the serialized form of the estimator's private state.
type gtmState struct {
	Variances map[string]float64 `json:"variances"`
}

func (g *gtmEstimator) exportState(ids []string) (json.RawMessage, error) {
	if len(g.variances) == 0 {
		return nil, nil
	}
	st := gtmState{Variances: make(map[string]float64, len(g.variances))}
	for u, v := range g.variances {
		if u < len(ids) && ids[u] == "" {
			continue // free slot of an evicted user; their variance rides the spill record
		}
		st.Variances[ids[u]] = v
	}
	data, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("stream: export gtm state: %w", err)
	}
	return data, nil
}

// gtmUserState is one spilled user's private state: their variance.
type gtmUserState struct {
	Variance float64 `json:"variance"`
}

func (g *gtmEstimator) exportUser(idx int) (json.RawMessage, error) {
	if idx >= len(g.variances) || g.variances[idx] == g.initVariance {
		return nil, nil // never estimated (or still at the prior): nothing to spill
	}
	data, err := json.Marshal(gtmUserState{Variance: g.variances[idx]})
	if err != nil {
		return nil, fmt.Errorf("stream: export gtm user state: %w", err)
	}
	return data, nil
}

func (g *gtmEstimator) decodeUser(data json.RawMessage) (userSeed, error) {
	if len(data) == 0 || string(data) == "null" {
		return userSeed{variance: g.initVariance}, nil
	}
	var st gtmUserState
	if err := json.Unmarshal(data, &st); err != nil {
		return userSeed{}, fmt.Errorf("%w: decode gtm user state: %v", ErrBadState, err)
	}
	if !finite(st.Variance) || st.Variance <= 0 {
		return userSeed{}, fmt.Errorf("%w: spilled gtm variance = %v", ErrBadState, st.Variance)
	}
	return userSeed{variance: st.Variance}, nil
}

func (g *gtmEstimator) seedUser(idx int, seed userSeed) {
	for len(g.variances) <= idx {
		g.variances = append(g.variances, g.initVariance)
	}
	g.variances[idx] = seed.variance
}

func (g *gtmEstimator) restoreState(data json.RawMessage, byID map[string]int) error {
	if len(data) == 0 || string(data) == "null" {
		return nil // a fresh (or legacy CRH-era) state: variances start at initVariance
	}
	var st gtmState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: decode gtm estimator state: %v", ErrBadState, err)
	}
	variances := make([]float64, len(byID))
	for i := range variances {
		variances[i] = g.initVariance
	}
	for id, v := range st.Variances {
		u, ok := byID[id]
		if !ok {
			return fmt.Errorf("%w: gtm variance for unknown user %q", ErrBadState, id)
		}
		if !finite(v) || v <= 0 {
			return fmt.Errorf("%w: gtm variance for user %q = %v", ErrBadState, id, v)
		}
		variances[u] = v
	}
	g.variances = variances
	return nil
}
