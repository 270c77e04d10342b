// Package categorical extends pptd to categorical claims: weighted-voting
// truth discovery plus a k-ary randomized-response perturbation mechanism
// satisfying pure epsilon-local differential privacy.
//
// The paper's mechanism targets continuous data; its companion work
// (Li et al., KDD'18, cited as [23]) covers the categorical case. This
// package implements that direction so the library covers both claim
// types: each user flips their answer through k-ary randomized response
// (keep probability e^eps/(e^eps+K-1)), and the server runs iterative
// weighted voting, which down-weights users whose answers disagree with
// the emerging consensus — including users randomized away from it.
package categorical

import (
	"errors"
	"fmt"
	"math"

	"pptd/internal/randx"
)

var (
	// ErrBadParam reports an invalid parameter.
	ErrBadParam = errors.New("categorical: invalid parameter")
	// ErrBadIndex reports an out-of-range user, object or category.
	ErrBadIndex = errors.New("categorical: index out of range")
	// ErrDuplicate reports two claims by one user on one object.
	ErrDuplicate = errors.New("categorical: duplicate claim")
	// ErrNoClaims reports an object with no claims.
	ErrNoClaims = errors.New("categorical: object has no claims")
)

// Claim is one categorical answer: user asserts Category for Object.
type Claim struct {
	User     int
	Object   int
	Category int
}

// Dataset is an immutable sparse matrix of categorical claims over K
// categories.
type Dataset struct {
	numUsers      int
	numObjects    int
	numCategories int

	byUser   [][]objCat
	byObject [][]userCat
	count    int
}

type objCat struct {
	object   int
	category int
}

type userCat struct {
	user     int
	category int
}

// Builder accumulates claims for a Dataset.
type Builder struct {
	numUsers      int
	numObjects    int
	numCategories int
	claims        []Claim
	seen          map[[2]int]struct{}
	err           error
}

// NewBuilder returns a Builder for the given dimensions and category
// count.
func NewBuilder(numUsers, numObjects, numCategories int) *Builder {
	return &Builder{
		numUsers:      numUsers,
		numObjects:    numObjects,
		numCategories: numCategories,
		seen:          make(map[[2]int]struct{}),
	}
}

// Add records one claim; errors are sticky and reported by Build.
func (b *Builder) Add(user, object, category int) {
	if b.err != nil {
		return
	}
	switch {
	case user < 0 || user >= b.numUsers:
		b.err = fmt.Errorf("%w: user %d of %d", ErrBadIndex, user, b.numUsers)
	case object < 0 || object >= b.numObjects:
		b.err = fmt.Errorf("%w: object %d of %d", ErrBadIndex, object, b.numObjects)
	case category < 0 || category >= b.numCategories:
		b.err = fmt.Errorf("%w: category %d of %d", ErrBadIndex, category, b.numCategories)
	default:
		key := [2]int{user, object}
		if _, dup := b.seen[key]; dup {
			b.err = fmt.Errorf("%w: user %d object %d", ErrDuplicate, user, object)
			return
		}
		b.seen[key] = struct{}{}
		b.claims = append(b.claims, Claim{User: user, Object: object, Category: category})
	}
}

// Build validates and returns the Dataset.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.numUsers <= 0 || b.numObjects <= 0 {
		return nil, fmt.Errorf("%w: %d users, %d objects", ErrBadParam, b.numUsers, b.numObjects)
	}
	if b.numCategories < 2 {
		return nil, fmt.Errorf("%w: %d categories (need >= 2)", ErrBadParam, b.numCategories)
	}
	ds := &Dataset{
		numUsers:      b.numUsers,
		numObjects:    b.numObjects,
		numCategories: b.numCategories,
		byUser:        make([][]objCat, b.numUsers),
		byObject:      make([][]userCat, b.numObjects),
		count:         len(b.claims),
	}
	for _, c := range b.claims {
		ds.byUser[c.User] = append(ds.byUser[c.User], objCat{object: c.Object, category: c.Category})
		ds.byObject[c.Object] = append(ds.byObject[c.Object], userCat{user: c.User, category: c.Category})
	}
	for n, claims := range ds.byObject {
		if len(claims) == 0 {
			return nil, fmt.Errorf("%w: object %d", ErrNoClaims, n)
		}
	}
	return ds, nil
}

// NumUsers returns S.
func (d *Dataset) NumUsers() int { return d.numUsers }

// NumObjects returns N.
func (d *Dataset) NumObjects() int { return d.numObjects }

// NumCategories returns K.
func (d *Dataset) NumCategories() int { return d.numCategories }

// NumClaims returns the claim count.
func (d *Dataset) NumClaims() int { return d.count }

// Claims returns a copy of all claims in user-major order.
func (d *Dataset) Claims() []Claim {
	out := make([]Claim, 0, d.count)
	for s, cs := range d.byUser {
		for _, oc := range cs {
			out = append(out, Claim{User: s, Object: oc.object, Category: oc.category})
		}
	}
	return out
}

// Map returns a new Dataset with every category replaced by
// f(user, object, category); the sparsity pattern is preserved.
func (d *Dataset) Map(f func(user, object, category int) int) (*Dataset, error) {
	b := NewBuilder(d.numUsers, d.numObjects, d.numCategories)
	for s, cs := range d.byUser {
		for _, oc := range cs {
			b.Add(s, oc.object, f(s, oc.object, oc.category))
		}
	}
	return b.Build()
}

// Result is the output of categorical truth discovery.
type Result struct {
	// Truths holds the winning category per object.
	Truths []int
	// Weights holds per-user weights (0 for silent users).
	Weights []float64
	// Iterations is the number of voting/weighting rounds.
	Iterations int
	// Converged reports whether the truths stabilized before the cap.
	Converged bool
}

// votingMaxIterations caps the weighted-voting rounds.
const votingMaxIterations = 50

// Voting is iterative weighted-voting truth discovery for categorical
// claims, the categorical counterpart of CRH: truths are weighted
// plurality votes, and user weights decrease with their disagreement rate
// against the current truths (Eq. 3 with 0/1 distance).
type Voting struct {
	weighted bool
}

// VotingOption configures NewVoting.
type VotingOption interface {
	applyVoting(*Voting)
}

type votingOptionFunc func(*Voting)

func (f votingOptionFunc) applyVoting(v *Voting) { f(v) }

// WithUnweightedVoting disables weight estimation, reducing the method to
// plain majority voting (the baseline).
func WithUnweightedVoting() VotingOption {
	return votingOptionFunc(func(v *Voting) { v.weighted = false })
}

// NewVoting returns a configured voting method, which runs at most 50
// weighted rounds (votingMaxIterations). It never fails.
func NewVoting(opts ...VotingOption) (*Voting, error) {
	v := &Voting{weighted: true}
	for _, o := range opts {
		o.applyVoting(v)
	}
	return v, nil
}

// Name identifies the method.
func (v *Voting) Name() string {
	if v.weighted {
		return "weighted-voting"
	}
	return "majority"
}

// Run executes the method.
func (v *Voting) Run(ds *Dataset) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadParam)
	}
	weights := make([]float64, ds.numUsers)
	for s := range weights {
		weights[s] = 1
	}
	truths := make([]int, ds.numObjects)
	scores := make([]float64, ds.numCategories)
	vote := func() bool {
		changed := false
		for n, claims := range ds.byObject {
			for k := range scores {
				scores[k] = 0
			}
			for _, uc := range claims {
				scores[uc.category] += weights[uc.user]
			}
			best := 0
			for k := 1; k < len(scores); k++ {
				if scores[k] > scores[best] {
					best = k
				}
			}
			if truths[n] != best {
				truths[n] = best
				changed = true
			}
		}
		return changed
	}

	res := &Result{Truths: truths, Weights: weights}
	vote() // initial plurality under uniform weights
	if !v.weighted {
		res.Iterations = 1
		res.Converged = true
		return res, nil
	}
	const errFloor = 1e-6
	errRates := make([]float64, ds.numUsers)
	for iter := 1; iter <= votingMaxIterations; iter++ {
		res.Iterations = iter
		var total float64
		for s, claims := range ds.byUser {
			if len(claims) == 0 {
				errRates[s] = math.NaN()
				continue
			}
			disagree := 0
			for _, oc := range claims {
				if truths[oc.object] != oc.category {
					disagree++
				}
			}
			e := float64(disagree) / float64(len(claims))
			if e < errFloor {
				e = errFloor
			}
			errRates[s] = e
			total += e
		}
		if total <= 0 {
			total = errFloor
		}
		for s := range weights {
			if math.IsNaN(errRates[s]) {
				weights[s] = 0
				continue
			}
			w := -math.Log(errRates[s] / total)
			if w < 0 {
				w = 0
			}
			weights[s] = w
		}
		if !vote() {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// Accuracy returns the fraction of objects whose discovered truth matches
// the reference.
func Accuracy(truths, reference []int) (float64, error) {
	if len(truths) != len(reference) {
		return 0, fmt.Errorf("%w: %d truths vs %d references", ErrBadParam, len(truths), len(reference))
	}
	if len(truths) == 0 {
		return 0, fmt.Errorf("%w: empty", ErrBadParam)
	}
	correct := 0
	for i := range truths {
		if truths[i] == reference[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(truths)), nil
}

// RandomizedResponse is the k-ary randomized response mechanism: it keeps
// the true category with probability e^eps/(e^eps + K - 1) and otherwise
// reports one of the K-1 other categories uniformly. It satisfies pure
// eps-local differential privacy.
type RandomizedResponse struct {
	epsilon       float64
	numCategories int
	keepProb      float64
}

// NewRandomizedResponse returns the mechanism for K categories at privacy
// level eps.
func NewRandomizedResponse(eps float64, numCategories int) (*RandomizedResponse, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("%w: epsilon = %v", ErrBadParam, eps)
	}
	if numCategories < 2 {
		return nil, fmt.Errorf("%w: %d categories (need >= 2)", ErrBadParam, numCategories)
	}
	e := math.Exp(eps)
	return &RandomizedResponse{
		epsilon:       eps,
		numCategories: numCategories,
		keepProb:      e / (e + float64(numCategories) - 1),
	}, nil
}

// Epsilon returns the privacy level.
func (rr *RandomizedResponse) Epsilon() float64 { return rr.epsilon }

// KeepProbability returns e^eps/(e^eps + K - 1).
func (rr *RandomizedResponse) KeepProbability() float64 { return rr.keepProb }

// Perturb randomizes one category.
func (rr *RandomizedResponse) Perturb(category int, rng *randx.RNG) (int, error) {
	if category < 0 || category >= rr.numCategories {
		return 0, fmt.Errorf("%w: category %d of %d", ErrBadIndex, category, rr.numCategories)
	}
	if rng == nil {
		return 0, fmt.Errorf("%w: nil rng", ErrBadParam)
	}
	if rng.Float64() < rr.keepProb {
		return category, nil
	}
	// Uniform over the other K-1 categories.
	other := rng.Intn(rr.numCategories - 1)
	if other >= category {
		other++
	}
	return other, nil
}

// PerturbDataset randomizes every claim independently, simulating all
// users of the categorical Algorithm 2.
func (rr *RandomizedResponse) PerturbDataset(ds *Dataset, rng *randx.RNG) (*Dataset, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadParam)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadParam)
	}
	if ds.numCategories != rr.numCategories {
		return nil, fmt.Errorf("%w: dataset has %d categories, mechanism %d",
			ErrBadParam, ds.numCategories, rr.numCategories)
	}
	var firstErr error
	out, err := ds.Map(func(_, _, category int) int {
		noisy, perr := rr.Perturb(category, rng)
		if perr != nil && firstErr == nil {
			firstErr = perr
		}
		return noisy
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		return nil, fmt.Errorf("categorical: perturb: %w", err)
	}
	return out, nil
}
