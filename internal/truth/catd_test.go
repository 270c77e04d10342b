package truth

import (
	"math"
	"testing"

	"pptd/internal/randx"
)

func TestCATDName(t *testing.T) {
	c, err := NewCATD()
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "catd" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestCATDRecoversTruths(t *testing.T) {
	rng := randx.New(30)
	truths := genTruths(rng, 50)
	stds := []float64{0.05, 0.1, 0.5, 1.0, 1.5, 0.2}
	ds := genDataset(t, rng, truths, stds)
	c, err := NewCATD()
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
	if mae /= float64(len(truths)); mae > 0.15 {
		t.Errorf("CATD MAE = %v", mae)
	}
}

func TestCATDLongTailBoost(t *testing.T) {
	// Two users with the same noise level, one observing 4x the objects:
	// the chi-squared quantile rewards the better-covered user with a
	// larger quantile-to-SS ratio. Verify weights are positive and the
	// heavy contributor is not penalized for participating more.
	rng := randx.New(31)
	const numObjects = 80
	b := NewBuilder(3, numObjects)
	truths := genTruths(rng, numObjects)
	for n, tv := range truths {
		b.Add(0, n, tv+0.3*rng.Norm()) // heavy contributor
		if n%4 == 0 {
			b.Add(1, n, tv+0.3*rng.Norm()) // light contributor
		}
		b.Add(2, n, tv+0.3*rng.Norm()) // anchor so objects have >= 2 claims
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCATD()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] <= 0 || res.Weights[1] <= 0 {
		t.Fatalf("weights = %v", res.Weights)
	}
}

func TestChi2Quantile(t *testing.T) {
	// Reference values (R qchisq): qchisq(0.95, 1)=3.841, (0.95, 5)=11.070,
	// (0.95, 30)=43.773, (0.5, 10)=9.342. Wilson-Hilferty is approximate;
	// allow a few percent.
	tests := []struct {
		p, k, want float64
	}{
		{0.95, 1, 3.841},
		{0.95, 5, 11.070},
		{0.95, 30, 43.773},
		{0.5, 10, 9.342},
	}
	for _, tt := range tests {
		got := Chi2Quantile(tt.p, tt.k)
		if math.Abs(got-tt.want)/tt.want > 0.05 {
			t.Errorf("Chi2Quantile(%v, %v) = %v, want ~%v", tt.p, tt.k, got, tt.want)
		}
	}
}

func TestStdNormalQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.95, 1.644854},
	}
	for _, tt := range tests {
		if got := stdNormalQuantile(tt.p); math.Abs(got-tt.want) > 1e-4 {
			t.Errorf("stdNormalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}
