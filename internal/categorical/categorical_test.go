package categorical

import (
	"errors"
	"math"
	"testing"

	"pptd/internal/randx"
)

// genCategorical builds a crowd where user s answers correctly with
// probability correctProb[s], otherwise uniformly wrong.
func genCategorical(t *testing.T, rng *randx.RNG, numObjects, numCategories int, correctProb []float64) (*Dataset, []int) {
	t.Helper()
	truths := make([]int, numObjects)
	for n := range truths {
		truths[n] = rng.Intn(numCategories)
	}
	b := NewBuilder(len(correctProb), numObjects, numCategories)
	for s, p := range correctProb {
		for n, tv := range truths {
			cat := tv
			if rng.Float64() >= p {
				cat = rng.Intn(numCategories - 1)
				if cat >= tv {
					cat++
				}
			}
			b.Add(s, n, cat)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, truths
}

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *Builder
		wantErr error
	}{
		{
			name: "bad user",
			build: func() *Builder {
				b := NewBuilder(1, 1, 2)
				b.Add(5, 0, 0)
				return b
			},
			wantErr: ErrBadIndex,
		},
		{
			name: "bad category",
			build: func() *Builder {
				b := NewBuilder(1, 1, 2)
				b.Add(0, 0, 7)
				return b
			},
			wantErr: ErrBadIndex,
		},
		{
			name: "duplicate",
			build: func() *Builder {
				b := NewBuilder(1, 1, 2)
				b.Add(0, 0, 0)
				b.Add(0, 0, 1)
				return b
			},
			wantErr: ErrDuplicate,
		},
		{
			name: "uncovered object",
			build: func() *Builder {
				b := NewBuilder(1, 2, 2)
				b.Add(0, 0, 0)
				return b
			},
			wantErr: ErrNoClaims,
		},
		{
			name:    "one category",
			build:   func() *Builder { return NewBuilder(1, 1, 1) },
			wantErr: ErrBadParam,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build().Build(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Build error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDatasetAccessors(t *testing.T) {
	b := NewBuilder(2, 2, 3)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 0, 1)
	b.Add(1, 1, 0)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers() != 2 || ds.NumObjects() != 2 || ds.NumCategories() != 3 || ds.NumClaims() != 4 {
		t.Fatalf("dims: %d %d %d %d", ds.NumUsers(), ds.NumObjects(), ds.NumCategories(), ds.NumClaims())
	}
	claims := ds.Claims()
	if len(claims) != 4 || claims[0] != (Claim{User: 0, Object: 0, Category: 1}) {
		t.Fatalf("claims = %+v", claims)
	}
}

func TestVotingRecoversCleanTruths(t *testing.T) {
	rng := randx.New(1)
	probs := make([]float64, 30)
	for i := range probs {
		probs[i] = 0.9
	}
	ds, truths := genCategorical(t, rng, 50, 4, probs)
	v, err := NewVoting()
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(res.Truths, truths)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.98 {
		t.Fatalf("accuracy = %v", acc)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
}

func TestWeightedVotingBeatsMajority(t *testing.T) {
	// A reliable minority against a noisy majority: weighting must find
	// the truth more often than plain majority.
	rng := randx.New(2)
	probs := make([]float64, 30)
	for i := range probs {
		if i < 8 {
			probs[i] = 0.95 // experts
		} else {
			probs[i] = 0.34 // barely better than random over 3 categories
		}
	}
	var weightedAcc, majorityAcc float64
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		ds, truths := genCategorical(t, rng, 60, 3, probs)
		weighted, err := NewVoting()
		if err != nil {
			t.Fatal(err)
		}
		majority, err := NewVoting(WithUnweightedVoting())
		if err != nil {
			t.Fatal(err)
		}
		wres, err := weighted.Run(ds)
		if err != nil {
			t.Fatal(err)
		}
		mres, err := majority.Run(ds)
		if err != nil {
			t.Fatal(err)
		}
		wa, err := Accuracy(wres.Truths, truths)
		if err != nil {
			t.Fatal(err)
		}
		ma, err := Accuracy(mres.Truths, truths)
		if err != nil {
			t.Fatal(err)
		}
		weightedAcc += wa
		majorityAcc += ma
	}
	if weightedAcc <= majorityAcc {
		t.Fatalf("weighted total accuracy %v not above majority %v", weightedAcc, majorityAcc)
	}
}

func TestVotingWeightsTrackQuality(t *testing.T) {
	rng := randx.New(3)
	probs := []float64{0.95, 0.7, 0.4}
	ds, _ := genCategorical(t, rng, 200, 3, probs)
	v, err := NewVoting()
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Weights[0] > res.Weights[1] && res.Weights[1] > res.Weights[2]) {
		t.Fatalf("weights not ordered by quality: %v", res.Weights)
	}
}

func TestVotingValidation(t *testing.T) {
	v, err := NewVoting()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(nil); !errors.Is(err, ErrBadParam) {
		t.Error("nil dataset accepted")
	}
	if v.Name() != "weighted-voting" {
		t.Errorf("name = %q", v.Name())
	}
	m, err := NewVoting(WithUnweightedVoting())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "majority" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestAccuracyValidation(t *testing.T) {
	if _, err := Accuracy([]int{1}, []int{1, 2}); !errors.Is(err, ErrBadParam) {
		t.Error("length mismatch accepted")
	}
	if _, err := Accuracy(nil, nil); !errors.Is(err, ErrBadParam) {
		t.Error("empty accepted")
	}
	acc, err := Accuracy([]int{1, 2, 3}, []int{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestRandomizedResponseKeepProbability(t *testing.T) {
	rr, err := NewRandomizedResponse(math.Log(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	// e^eps = 3, K = 3: keep prob = 3/(3+2) = 0.6.
	if math.Abs(rr.KeepProbability()-0.6) > 1e-12 {
		t.Fatalf("keep prob = %v, want 0.6", rr.KeepProbability())
	}
	if rr.Epsilon() != math.Log(3) {
		t.Fatalf("epsilon = %v", rr.Epsilon())
	}
}

func TestRandomizedResponseEmpiricalDistribution(t *testing.T) {
	rng := randx.New(4)
	const (
		k      = 4
		eps    = 1.0
		trials = 200000
	)
	rr, err := NewRandomizedResponse(eps, k)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for i := 0; i < trials; i++ {
		out, err := rr.Perturb(2, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[out]++
	}
	keep := float64(counts[2]) / trials
	if math.Abs(keep-rr.KeepProbability()) > 0.01 {
		t.Fatalf("empirical keep %v vs %v", keep, rr.KeepProbability())
	}
	// The other categories should be uniform.
	otherWant := (1 - rr.KeepProbability()) / float64(k-1)
	for cat, c := range counts {
		if cat == 2 {
			continue
		}
		if got := float64(c) / trials; math.Abs(got-otherWant) > 0.01 {
			t.Errorf("category %d frequency %v, want %v", cat, got, otherWant)
		}
	}
	// LDP ratio: Pr[report y | true a] / Pr[report y | true b] <= e^eps,
	// with the maximum attained at y = a: keep/( (1-keep)/(k-1) ).
	ratio := rr.KeepProbability() / otherWant
	if math.Abs(ratio-math.Exp(eps)) > 1e-9 {
		t.Errorf("LDP ratio %v, want e^eps = %v", ratio, math.Exp(eps))
	}
}

func TestRandomizedResponseValidation(t *testing.T) {
	if _, err := NewRandomizedResponse(0, 3); !errors.Is(err, ErrBadParam) {
		t.Error("zero epsilon accepted")
	}
	if _, err := NewRandomizedResponse(1, 1); !errors.Is(err, ErrBadParam) {
		t.Error("one category accepted")
	}
	rr, err := NewRandomizedResponse(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Perturb(5, randx.New(1)); !errors.Is(err, ErrBadIndex) {
		t.Error("bad category accepted")
	}
	if _, err := rr.Perturb(0, nil); !errors.Is(err, ErrBadParam) {
		t.Error("nil rng accepted")
	}
	if _, err := rr.PerturbDataset(nil, randx.New(1)); !errors.Is(err, ErrBadParam) {
		t.Error("nil dataset accepted")
	}
}

func TestRandomizedResponseCategoryMismatch(t *testing.T) {
	b := NewBuilder(1, 1, 2)
	b.Add(0, 0, 1)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRandomizedResponse(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.PerturbDataset(ds, randx.New(1)); !errors.Is(err, ErrBadParam) {
		t.Error("category count mismatch accepted")
	}
}

func TestPrivateCategoricalTruthDiscovery(t *testing.T) {
	// End-to-end categorical Algorithm 2: randomize every claim, then
	// weighted voting still recovers most truths at moderate epsilon.
	rng := randx.New(5)
	probs := make([]float64, 60)
	for i := range probs {
		probs[i] = 0.6 + 0.35*rng.Float64()
	}
	ds, truths := genCategorical(t, rng, 80, 3, probs)
	rr, err := NewRandomizedResponse(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := rr.PerturbDataset(ds, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if noisy.NumClaims() != ds.NumClaims() {
		t.Fatal("perturbation changed claim count")
	}
	v, err := NewVoting()
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(res.Truths, truths)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy under eps=2 randomized response = %v", acc)
	}
}

func TestVotingDeterministic(t *testing.T) {
	rng := randx.New(6)
	probs := []float64{0.9, 0.6, 0.5, 0.8}
	ds, _ := genCategorical(t, rng, 40, 3, probs)
	v, err := NewVoting()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := v.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for n := range r1.Truths {
		if r1.Truths[n] != r2.Truths[n] {
			t.Fatal("non-deterministic voting")
		}
	}
}
