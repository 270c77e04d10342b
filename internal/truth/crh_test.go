package truth

import (
	"errors"
	"math"
	"testing"

	"pptd/internal/randx"
)

func TestNewCRHValidation(t *testing.T) {
	if _, err := NewCRH(WithCRHTolerance(0)); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := NewCRH(WithCRHMaxIterations(0)); err == nil {
		t.Error("zero iteration cap accepted")
	}
	if _, err := NewCRH(WithCRHDistance(Distance(42))); err == nil {
		t.Error("unknown distance accepted")
	}
}

func TestCRHName(t *testing.T) {
	c, err := NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "crh" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestCRHConvergesAndReportsIterations(t *testing.T) {
	rng := randx.New(10)
	truths := genTruths(rng, 30)
	stds := make([]float64, 50)
	for i := range stds {
		stds[i] = 0.1 + rng.Float64()
	}
	ds := genDataset(t, rng, truths, stds)
	c, err := NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("CRH did not converge on benign data")
	}
	if res.Iterations <= 0 || res.Iterations > DefaultMaxIterations {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestCRHAllDistances(t *testing.T) {
	rng := randx.New(11)
	truths := genTruths(rng, 25)
	stds := []float64{0.05, 0.1, 0.5, 1.0, 2.5, 0.2, 0.3}
	ds := genDataset(t, rng, truths, stds)
	for _, dist := range []Distance{SquaredDistance, AbsoluteDistance, NormalizedSquaredDistance} {
		t.Run(dist.String(), func(t *testing.T) {
			c, err := NewCRH(WithCRHDistance(dist))
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(ds)
			if err != nil {
				t.Fatal(err)
			}
			var mae float64
			for n, tv := range truths {
				mae += math.Abs(res.Truths[n] - tv)
			}
			mae /= float64(len(truths))
			if mae > 0.25 {
				t.Errorf("MAE with %v distance = %v", dist, mae)
			}
			// Best user should out-weigh worst user.
			if res.Weights[0] <= res.Weights[4] {
				t.Errorf("weights not quality-ordered: best %v, worst %v", res.Weights[0], res.Weights[4])
			}
		})
	}
}

func TestCRHFailOnNonConvergence(t *testing.T) {
	rng := randx.New(12)
	truths := genTruths(rng, 10)
	stds := []float64{0.5, 1, 2}
	ds := genDataset(t, rng, truths, stds)
	c, err := NewCRH(
		WithCRHMaxIterations(1),
		WithCRHTolerance(1e-15),
		WithCRHFailOnNonConvergence(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ds); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("error = %v, want ErrNotConverged", err)
	}
}

func TestCRHWeightsNonNegative(t *testing.T) {
	rng := randx.New(13)
	truths := genTruths(rng, 15)
	stds := []float64{0.01, 5.0} // extreme imbalance stresses the clamp
	ds := genDataset(t, rng, truths, stds)
	c, err := NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range res.Weights {
		if w < 0 || math.IsNaN(w) {
			t.Errorf("weight %d = %v", s, w)
		}
	}
}

// TestCRHLoneUserWeightIsPositiveZero: a lone user's weight is
// -log(1), which the clamp turns into +0, so it never prints as "-0".
func TestCRHLoneUserWeightIsPositiveZero(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1.5, 2.5}})
	c, err := NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Weights[0]; w != 0 || math.Signbit(w) {
		t.Errorf("lone user's weight = %v (sign bit %v), want +0", w, math.Signbit(w))
	}
}

func TestCRHPerfectAgreement(t *testing.T) {
	// All users report identical values: distances hit the floor, the
	// algorithm must still terminate with the exact truths.
	ds := mustDataset(t, [][]float64{
		{1, 2, 3},
		{1, 2, 3},
		{1, 2, 3},
	})
	c, err := NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range []float64{1, 2, 3} {
		if res.Truths[n] != want {
			t.Errorf("truth %d = %v, want %v", n, res.Truths[n], want)
		}
	}
}

func TestCRHDeterministic(t *testing.T) {
	rng := randx.New(14)
	truths := genTruths(rng, 20)
	stds := []float64{0.1, 0.4, 0.9, 1.5}
	ds := genDataset(t, rng, truths, stds)
	c, err := NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for n := range r1.Truths {
		if r1.Truths[n] != r2.Truths[n] {
			t.Fatalf("non-deterministic truth %d", n)
		}
	}
	if r1.Iterations != r2.Iterations {
		t.Fatal("non-deterministic iteration count")
	}
}
