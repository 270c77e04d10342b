package pptd

import (
	"pptd/internal/randx"
	"pptd/internal/secagg"
)

// SecureAggregator runs pairwise-masking secure-sum rounds — the
// crypto-based alternative the paper argues is too expensive for crowd
// sensing scale. It is provided as a measurable baseline.
type SecureAggregator = secagg.Aggregator

// SecureCost records the communication footprint of a protocol run.
type SecureCost = secagg.Cost

// NewSecureAggregator sets up pairwise masking for numUsers users.
func NewSecureAggregator(numUsers int, rng *RNG) (*SecureAggregator, error) {
	return secagg.NewAggregator(numUsers, rng)
}

// SecureCRH runs CRH truth discovery over secure-sum rounds, returning
// the result and the exact protocol cost. Like NewCRH's defaults it stops
// once the truths move less than 1e-6, after at most 100 rounds.
func SecureCRH(ds *Dataset, rng *randx.RNG) (*Result, SecureCost, error) {
	return secagg.SecureCRH(ds, rng)
}

// PerturbationCost returns the communication footprint of the paper's
// mechanism for the same task: one upload of numObjects readings per
// user, no setup.
func PerturbationCost(numUsers, numObjects int) SecureCost {
	return secagg.PerturbationCost(numUsers, numObjects)
}
