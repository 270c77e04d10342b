package core

import (
	"math"
	"testing"

	"pptd/internal/randx"
	"pptd/internal/stats"
)

// laplaceCDF is the CDF of Laplace(0, b).
func laplaceCDF(b float64) func(float64) float64 {
	return func(x float64) float64 {
		if x < 0 {
			return 0.5 * math.Exp(x/b)
		}
		return 1 - 0.5*math.Exp(-x/b)
	}
}

// TestSingleClaimNoiseIsLaplace is the measured half of docs/PRIVACY.md's
// single-claim row. One claim's noise is N(0, V) with V ~ Exp(lambda2)
// drawn once per device, so its marginal is the scale mixture
// Laplace(0, 1/sqrt(2 lambda2)). Each sample below is the first release
// of a fresh device; the KS distance to that Laplace stays under the
// 1 % critical value, and the distance to the Gaussian of the same
// variance, 1/lambda2, exceeds it — the test can tell the two apart.
func TestSingleClaimNoiseIsLaplace(t *testing.T) {
	const (
		n     = 20000
		alpha = 0.01
	)
	crit := stats.KSCriticalValue(n, alpha)
	for i, lambda2 := range []float64{0.5, 2, 8} {
		m, err := NewMechanism(lambda2)
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(uint64(101 + i))
		xs := make([]float64, n)
		for k := range xs {
			xs[k] = m.NewUserPerturber(rng).Perturb(0)
		}
		dLaplace, err := stats.KolmogorovSmirnov(xs, laplaceCDF(1/math.Sqrt(2*lambda2)))
		if err != nil {
			t.Fatal(err)
		}
		gauss, err := randx.NewNormal(0, math.Sqrt(1/lambda2))
		if err != nil {
			t.Fatal(err)
		}
		dGauss, err := stats.KolmogorovSmirnov(xs, gauss.CDF)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("lambda2 = %v: D(Laplace) = %.4f, D(Gaussian) = %.4f, critical %.4f", lambda2, dLaplace, dGauss, crit)
		if dLaplace >= crit {
			t.Errorf("lambda2 = %v: KS distance to Laplace %.4f >= critical %.4f", lambda2, dLaplace, crit)
		}
		if dGauss <= crit {
			t.Errorf("lambda2 = %v: KS distance to the same-variance Gaussian %.4f <= critical %.4f: no power", lambda2, dGauss, crit)
		}
	}
}

// TestSingleClaimEpsilon pins docs/PRIVACY.md's two
// numbers at the benchmark's (lambda1, lambda2, delta) = (1.5, 2, 0.3):
// the pure epsilon of one claim, Delta*sqrt(2 lambda2) with Lemma 4.7's
// Delta — a Laplace mechanism's epsilon at that sensitivity — and the
// per-window epsilon the ledger charges (Theorem 4.8).
func TestSingleClaimEpsilon(t *testing.T) {
	acct, err := NewAccountant(1.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMechanism(2)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := acct.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	pure := delta * math.Sqrt(2*m.Lambda2())
	charged, err := acct.Epsilon(m, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	round2 := func(x float64) float64 { return math.Round(x*100) / 100 }
	if round2(pure) != 9.79 {
		t.Errorf("single-claim pure epsilon = %v, want 9.79", pure)
	}
	if round2(charged) != 67.19 {
		t.Errorf("charged per-window epsilon = %v, want 67.19", charged)
	}
	if c := acct.SensitivityConfidence(); math.Round(c*1000)/1000 != 0.943 {
		t.Errorf("Lemma 4.7 confidence = %v, want 0.943", c)
	}
}
