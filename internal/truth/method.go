package truth

import (
	"fmt"
	"math"
)

// The fixed parameters of the iterative methods. The streaming estimators
// (internal/stream) read the same constants, so a streamed window and its
// batch counterpart run at one setting.
const (
	// DefaultTolerance is the convergence threshold on the maximum
	// per-object truth change between consecutive iterations. GTM and CATD
	// always run at it; CRH may be given another (WithCRHTolerance).
	DefaultTolerance = 1e-6
	// DefaultMaxIterations caps the iteration count of CRH, GTM and CATD
	// when the tolerance is never reached; the last iterate is returned
	// with Converged=false.
	DefaultMaxIterations = 100

	// GTMTruthPriorWeight is GTM's pseudo-claim weight of the per-object
	// claim mean acting as the truth prior (1/sigma0^2 in model terms).
	GTMTruthPriorWeight = 0.01
	// GTMPriorAlpha and GTMPriorBeta parameterize GTM's inverse-Gamma
	// prior on user variances: a weak prior with mean 1.
	GTMPriorAlpha = 2.0
	GTMPriorBeta  = 1.0
	// GTMInitialVariance seeds every user variance before GTM's first
	// iteration.
	GTMInitialVariance = 1.0

	// CATDConfidence is the chi-squared confidence level of CATD's
	// per-user precision bound.
	CATDConfidence = 0.95
)

// Result is the output of one truth-discovery run.
type Result struct {
	// Truths holds the aggregated value per object (x*_n).
	Truths []float64
	// Weights holds the estimated per-user weight (w_s). For users with no
	// observations the weight is 0. Baseline methods report uniform or
	// zero weights as documented on the method.
	Weights []float64
	// Iterations is the number of truth/weight update rounds executed.
	Iterations int
	// Converged reports whether the tolerance was met before the cap.
	Converged bool
}

// Method is a truth-discovery algorithm: it maps a Dataset to aggregated
// truths and user weights.
type Method interface {
	// Name identifies the method in reports and benchmarks.
	Name() string
	// Run executes the method on the dataset.
	Run(ds *Dataset) (*Result, error)
}

// Distance selects the claim-to-truth distance d(.,.) used in the weight
// update (Eq. 2 of the paper).
type Distance int

// Supported distances.
const (
	// SquaredDistance is (x - t)^2, the CRH default for continuous data.
	SquaredDistance Distance = iota + 1
	// AbsoluteDistance is |x - t|.
	AbsoluteDistance
	// NormalizedSquaredDistance is (x - t)^2 / std_n, CRH's scale-free
	// variant; std_n is the per-object claim standard deviation.
	NormalizedSquaredDistance
)

// String returns the distance name.
func (d Distance) String() string {
	switch d {
	case SquaredDistance:
		return "squared"
	case AbsoluteDistance:
		return "absolute"
	case NormalizedSquaredDistance:
		return "normalized-squared"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

func (d Distance) valid() bool {
	switch d {
	case SquaredDistance, AbsoluteDistance, NormalizedSquaredDistance:
		return true
	default:
		return false
	}
}

// maxAbsDiff returns the largest absolute element-wise difference between
// equal-length slices.
func maxAbsDiff(a, b []float64) float64 {
	var maxd float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// NormalizeWeights rescales ws to mean 1, preserving ratios, so weights of
// different methods/runs are comparable in reports. Zero or negative total
// weight leaves ws unchanged and returns false.
func NormalizeWeights(ws []float64) bool {
	var sum float64
	for _, w := range ws {
		sum += w
	}
	if sum <= 0 || len(ws) == 0 {
		return false
	}
	scale := float64(len(ws)) / sum
	for i := range ws {
		ws[i] *= scale
	}
	return true
}

// WeightsAgainst evaluates the CRH weight formula (Eq. 3) for each user
// against a fixed reference truth vector instead of the iteratively
// estimated one. With the ground truth as reference this yields the "true
// weights" of the paper's Fig. 7. Distances are averaged per user over
// their observed objects; users with no observations get weight 0.
func WeightsAgainst(ds *Dataset, reference []float64, distance Distance) ([]float64, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadIndex)
	}
	if len(reference) != ds.NumObjects() {
		return nil, fmt.Errorf("%w: %d reference truths for %d objects",
			ErrBadIndex, len(reference), ds.NumObjects())
	}
	if !distance.valid() {
		return nil, fmt.Errorf("truth: unknown distance %v", distance)
	}
	const (
		distFloor = 1e-12
		stdFloor  = 1e-9
	)
	stds := ds.ObjectStdDevs()
	dists := make([]float64, ds.NumUsers())
	var total float64
	for s, claims := range ds.byUser {
		if len(claims) == 0 {
			dists[s] = math.NaN()
			continue
		}
		var d float64
		for _, ov := range claims {
			diff := ov.value - reference[ov.object]
			switch distance {
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
	weights := make([]float64, len(dists))
	for s, d := range dists {
		if math.IsNaN(d) {
			continue
		}
		w := -math.Log(d / total)
		if w < 0 {
			w = 0
		}
		weights[s] = w
	}
	return weights, nil
}

// weightedTruths computes Eq. 1: per-object weighted means of claims using
// the given user weights. Users with non-positive weight are clamped to
// weightFloor so every recorded claim retains an infinitesimal vote and
// the denominator stays positive.
func weightedTruths(ds *Dataset, weights []float64, out []float64) {
	const weightFloor = 1e-12
	for n, claims := range ds.byObject {
		var num, den float64
		for _, uv := range claims {
			w := weights[uv.user]
			if w < weightFloor {
				w = weightFloor
			}
			num += w * uv.value
			den += w
		}
		out[n] = num / den
	}
}
