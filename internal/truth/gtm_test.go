package truth

import (
	"math"
	"testing"

	"pptd/internal/randx"
)

func TestGTMName(t *testing.T) {
	g, err := NewGTM()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "gtm" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestGTMRecoversVarianceOrdering(t *testing.T) {
	rng := randx.New(20)
	truths := genTruths(rng, 80)
	stds := []float64{0.1, 0.3, 0.7, 1.2, 2.0}
	ds := genDataset(t, rng, truths, stds)
	g, err := NewGTM()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("GTM did not converge")
	}
	// Precisions must decrease with true noise.
	for s := 1; s < len(stds); s++ {
		if res.Weights[s] >= res.Weights[s-1] {
			t.Errorf("precision not decreasing: w[%d]=%v >= w[%d]=%v", s, res.Weights[s], s-1, res.Weights[s-1])
		}
	}
}

func TestGTMEstimatedVarianceClose(t *testing.T) {
	// With many objects and enough users that no single user dominates
	// the truth estimate, the MAP variance estimate should approach each
	// user's true noise variance. (At very small S the EM fixed point is
	// biased because each user's own noise contaminates the truths —
	// that regime is covered by the ordering test above.)
	rng := randx.New(21)
	truths := genTruths(rng, 400)
	stds := make([]float64, 30)
	for i := range stds {
		stds[i] = 0.5 + float64(i)/float64(len(stds)-1) // 0.5 .. 1.5
	}
	ds := genDataset(t, rng, truths, stds)
	g, err := NewGTM()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for s, sd := range stds {
		estVar := 1 / res.Weights[s]
		trueVar := sd * sd
		if math.Abs(estVar-trueVar) > 0.5*trueVar {
			t.Errorf("user %d variance = %v, want within 50%% of %v", s, estVar, trueVar)
		}
	}
}

func TestGTMVarianceFloor(t *testing.T) {
	// Perfectly consistent users would drive variance to ~beta/(alpha+1);
	// weights must stay finite.
	ds := mustDataset(t, [][]float64{
		{5, 5, 5},
		{5, 5, 5},
	})
	g, err := NewGTM()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range res.Weights {
		if math.IsInf(w, 0) || math.IsNaN(w) || w <= 0 {
			t.Errorf("weight %d = %v", s, w)
		}
	}
}
