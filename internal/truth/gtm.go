package truth

import "fmt"

// GTM implements the Gaussian Truth Model of Zhao & Han (QDB'12), the
// second truth-discovery method the paper evaluates (Fig. 5). Claims are
// modeled as x_sn ~ N(mu_n, sigma_s^2) with a Gaussian prior on each truth
// mu_n and an inverse-Gamma(alpha, beta) prior on each user variance
// sigma_s^2; inference alternates the posterior-mean truth update with the
// MAP variance update (an EM-style coordinate ascent).
//
// Reported weights are the estimated precisions 1/sigma_s^2, the natural
// "weight" of a user under this model.
type GTM struct{}

var _ Method = (*GTM)(nil)

// NewGTM returns GTM at its fixed parameters: a truth prior of weight
// GTMTruthPriorWeight (0.01) on each object's claim mean, an
// inverse-Gamma(GTMPriorAlpha, GTMPriorBeta) = (2, 1) prior on user
// variances, unit initial variances (GTMInitialVariance), tolerance
// DefaultTolerance (1e-6) and at most DefaultMaxIterations (100)
// iterations. It never fails.
func NewGTM() (*GTM, error) { return &GTM{}, nil }

// Name implements Method.
func (*GTM) Name() string { return "gtm" }

// Run implements Method.
func (*GTM) Run(ds *Dataset) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadIndex)
	}
	const varianceFloor = 1e-9

	var (
		numUsers   = ds.NumUsers()
		numObjs    = ds.NumObjects()
		variances  = make([]float64, numUsers)
		truths     = make([]float64, numObjs)
		prev       = make([]float64, numObjs)
		priorMeans = ds.ObjectMeans()
	)
	for s := range variances {
		variances[s] = GTMInitialVariance
	}
	copy(truths, priorMeans)

	res := &Result{Truths: truths}
	for iter := 1; iter <= DefaultMaxIterations; iter++ {
		res.Iterations = iter

		// E-step: posterior-mean truths given variances.
		for n, claims := range ds.byObject {
			num := GTMTruthPriorWeight * priorMeans[n]
			den := GTMTruthPriorWeight
			for _, uv := range claims {
				prec := 1 / variances[uv.user]
				num += prec * uv.value
				den += prec
			}
			prev[n] = truths[n]
			truths[n] = num / den
		}

		// M-step: MAP user variances given truths, under the
		// inverse-Gamma(alpha, beta) prior.
		for s, claims := range ds.byUser {
			if len(claims) == 0 {
				continue
			}
			var ss float64
			for _, ov := range claims {
				d := ov.value - truths[ov.object]
				ss += d * d
			}
			v := (2*GTMPriorBeta + ss) / (2*(GTMPriorAlpha+1) + float64(len(claims)))
			if v < varianceFloor {
				v = varianceFloor
			}
			variances[s] = v
		}

		if maxAbsDiff(prev, truths) < DefaultTolerance {
			res.Converged = true
			break
		}
	}

	weights := make([]float64, numUsers)
	for s, claims := range ds.byUser {
		if len(claims) == 0 {
			continue // weight 0 for silent users
		}
		weights[s] = 1 / variances[s]
	}
	res.Weights = weights
	return res, nil
}
