package pptd

import "pptd/internal/truth"

// Dataset is a sparse user-by-object matrix of continuous claims.
type Dataset = truth.Dataset

// Observation is a single (user, object, value) claim.
type Observation = truth.Observation

// DatasetBuilder accumulates observations into a Dataset.
type DatasetBuilder = truth.Builder

// NewDatasetBuilder returns a builder for a numUsers x numObjects dataset.
func NewDatasetBuilder(numUsers, numObjects int) *DatasetBuilder {
	return truth.NewBuilder(numUsers, numObjects)
}

// DatasetFromDense builds a Dataset from a dense matrix; NaN marks
// missing observations.
func DatasetFromDense(matrix [][]float64) (*Dataset, error) {
	return truth.FromDense(matrix)
}

// Method is a truth-discovery algorithm mapping a Dataset to aggregated
// truths and user weights.
type Method = truth.Method

// Result is the output of one truth-discovery run.
type Result = truth.Result

// Distance selects the claim-to-truth distance used in weight updates.
type Distance = truth.Distance

// Distances supported by CRH-style weight estimation.
const (
	// SquaredDistance is (x - t)^2.
	SquaredDistance = truth.SquaredDistance
	// AbsoluteDistance is |x - t|.
	AbsoluteDistance = truth.AbsoluteDistance
	// NormalizedSquaredDistance is (x - t)^2 / std_n (scale-free).
	NormalizedSquaredDistance = truth.NormalizedSquaredDistance
)

// CRHOption configures NewCRH.
type CRHOption = truth.CRHOption

// NewCRH returns the CRH truth-discovery method (Li et al., SIGMOD'14) —
// the method the paper instantiates in Eq. (1)-(3).
func NewCRH(opts ...CRHOption) (Method, error) { return truth.NewCRH(opts...) }

// WithCRHDistance selects the CRH distance function.
func WithCRHDistance(d Distance) CRHOption { return truth.WithCRHDistance(d) }

// WithCRHTolerance sets the CRH convergence tolerance.
func WithCRHTolerance(tol float64) CRHOption { return truth.WithCRHTolerance(tol) }

// NewGTM returns the Gaussian Truth Model method (Zhao & Han, QDB'12),
// the second method the paper evaluates (Fig. 5), at its fixed
// parameters: truth-prior weight 0.01, an inverse-Gamma(2, 1) prior on
// user variances, unit initial variances, tolerance 1e-6 and at most 100
// iterations.
func NewGTM() (Method, error) { return truth.NewGTM() }

// NewCATD returns the confidence-aware truth-discovery extension at its
// fixed parameters: confidence 0.95, tolerance 1e-6 and at most 100
// iterations.
func NewCATD() (Method, error) { return truth.NewCATD() }

// MeanBaseline returns the uniform-weight averaging baseline.
func MeanBaseline() Method { return truth.Mean{} }

// MedianBaseline returns the per-object median baseline.
func MedianBaseline() Method { return truth.Median{} }

// WeightsAgainst evaluates the CRH weight formula against a fixed
// reference truth vector (e.g. ground truth, for the paper's Fig. 7
// "true weights").
func WeightsAgainst(ds *Dataset, reference []float64, distance Distance) ([]float64, error) {
	return truth.WeightsAgainst(ds, reference, distance)
}

// NormalizeWeights rescales weights to mean 1 in place, preserving
// ratios. It reports whether normalization was possible.
func NormalizeWeights(ws []float64) bool { return truth.NormalizeWeights(ws) }
