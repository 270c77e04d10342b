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

// normalLogCDF is log Φ(x). Far in the lower tail Φ underflows to 0 and
// the log to -Inf, which exp maps back to an exact 0.
func normalLogCDF(x float64) float64 {
	return math.Log(0.5 * math.Erfc(-x/math.Sqrt2))
}

// gaussianDelta is the analytic Gaussian mechanism's privacy curve
// (Balle & Wang, ICML 2018): the smallest delta at which a Gaussian
// release whose neighbouring means lie mu standard deviations apart is
// (eps, delta)-DP. The e^eps factor rides inside the exponent, since
// e^eps alone overflows to Inf (and Inf*0 is NaN) once eps reaches the
// hundreds.
func gaussianDelta(eps, mu float64) float64 {
	return math.Exp(normalLogCDF(mu/2-eps/mu)) - math.Exp(eps+normalLogCDF(-mu/2-eps/mu))
}

// oneClaimDeltaBound is B(eps) = E_V[gaussianDelta(eps, shift/sqrt(V))]
// for V ~ Exp(lambda2): the delta of a device's release when its
// variance V is revealed to the adversary, which can only help them, so
// it bounds the delta of the release itself. The integral runs by
// trapezoid quadrature over ln V on [1e-12, 200]; the Exp(lambda2) mass
// outside that range is below 1e-11 for the lambda2 used here.
func oneClaimDeltaBound(eps, shift, lambda2 float64, nodes int) float64 {
	lo, hi := math.Log(1e-12), math.Log(200)
	h := (hi - lo) / float64(nodes-1)
	sum := 0.0
	for i := 0; i < nodes; i++ {
		v := math.Exp(lo + float64(i)*h)
		f := lambda2 * math.Exp(-lambda2*v) * v * gaussianDelta(eps, shift/math.Sqrt(v))
		if i == 0 || i == nodes-1 {
			f /= 2
		}
		sum += f
	}
	return sum * h
}

// TestOneClaimRelationDeltaBound fills docs/PRIVACY.md's one-claim
// entries for the submission, window and campaign rows. Neighbouring
// inputs differ in one claim by at most Lemma 4.7's Delta, so the shift
// between the two noise densities has length Delta however many claims
// a device sends and however many windows it sends them in, and one
// bound covers every row: at the benchmark's (lambda1, lambda2, delta)
// = (1.5, 2, 0.3) and the charged per-window epsilon, B stays under
// the configured delta. B is also non-increasing in epsilon, as a
// privacy curve must be, and the quadrature has converged.
func TestOneClaimRelationDeltaBound(t *testing.T) {
	const configuredDelta = 0.3
	acct, err := NewAccountant(1.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMechanism(2)
	if err != nil {
		t.Fatal(err)
	}
	shift, err := acct.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	charged, err := acct.Epsilon(m, configuredDelta)
	if err != nil {
		t.Fatal(err)
	}
	b := oneClaimDeltaBound(charged, shift, m.Lambda2(), 4000)
	t.Logf("Delta = %.4f, charged eps = %.4f: B = %.5f", shift, charged, b)
	if math.Round(b*1000)/1000 != 0.299 {
		t.Errorf("B(%.4f) = %.5f, want 0.299", charged, b)
	}
	if b >= configuredDelta {
		t.Errorf("B(%.4f) = %.5f is not below the configured delta %v", charged, b, configuredDelta)
	}
	for _, nodes := range []int{1000, 16000} {
		if other := oneClaimDeltaBound(charged, shift, m.Lambda2(), nodes); math.Abs(other-b) > 1e-4 {
			t.Errorf("B at %d nodes = %.6f, at 4000 = %.6f: quadrature not converged", nodes, other, b)
		}
	}

	prev := math.Inf(1)
	for eps := 10.0; eps <= 100; eps += 5 {
		cur := oneClaimDeltaBound(eps, shift, m.Lambda2(), 4000)
		if math.IsNaN(cur) || cur > prev+1e-12 {
			t.Errorf("B(%v) = %v after B(%v) = %v: not non-increasing", eps, cur, eps-5, prev)
		}
		prev = cur
	}
	if huge := oneClaimDeltaBound(800, shift, m.Lambda2(), 4000); math.IsNaN(huge) || huge < 0 || huge > prev {
		t.Errorf("B(800) = %v, want a finite value in [0, B(100) = %v]", huge, prev)
	}
}
