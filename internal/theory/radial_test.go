package theory

import (
	"fmt"
	"math"
	"testing"

	"pptd/internal/randx"
)

// The benchmark's privacy parameters, (lambda1, lambda2, delta) =
// (1.5, 2, 0.3), with Lemma 4.7's default tail constants.
const (
	radialLambda1 = 1.5
	radialLambda2 = 2.0
	radialDelta   = 0.3
)

// radialParams returns Lemma 4.7's sensitivity Delta and the per-window
// charge eps_w of Theorem 4.8 at the benchmark's parameters.
func radialParams(t *testing.T) (sens, epsW float64) {
	t.Helper()
	gamma, err := Gamma(3, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if sens, err = SensitivityBound(radialLambda1, gamma); err != nil {
		t.Fatal(err)
	}
	if epsW, err = EpsilonForNoiseLevel(NoiseLevel(radialLambda1, radialLambda2), radialDelta, radialLambda1, gamma); err != nil {
		t.Fatal(err)
	}
	return sens, epsW
}

// eachGrid runs f at DefaultGrid and at twice its sizes: a pin that
// holds at both has converged, not just landed.
func eachGrid(t *testing.T, f func(t *testing.T, grid Grid)) {
	for _, grid := range []Grid{DefaultGrid, {2 * RadiusNodes, 2 * AngleNodes, 2 * TableNodes}} {
		t.Run(fmt.Sprintf("%dx%d", grid.Radius, grid.Angle), func(t *testing.T) { f(t, grid) })
	}
}

// oneUserLoss is the one-user relation's loss: k claims under one V,
// each moved by Delta, so the shift has length Delta·sqrt(k).
func oneUserLoss(t *testing.T, k int, shift float64, grid Grid) *RadialLoss {
	t.Helper()
	l, err := NewRadialLoss(MixtureLogRadial(k, radialLambda2), k, shift, grid)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLogBesselK(t *testing.T) {
	half := func(z float64) float64 { return 0.5*math.Log(math.Pi/(2*z)) - z }
	cases := []struct {
		nu, z, want float64
	}{
		{0, 1, math.Log(0.42102443824070834)},
		{1, 1, math.Log(0.6019072301972346)},
		{0, 0.1, math.Log(2.4270690247020164)},
		{0.5, 2, half(2)},
		{0.5, 1e-8, half(1e-8)},
		{0.5, 1e6, half(1e6)},
		{1.5, 3, half(3) + math.Log1p(1.0/3)},
		{-1.5, 3, half(3) + math.Log1p(1.0/3)},
	}
	for _, c := range cases {
		if got := LogBesselK(c.nu, c.z); math.Abs(got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("ln K_%v(%v) = %.12g, want %.12g", c.nu, c.z, got, c.want)
		}
	}
	// The recurrence K_{ν+1}(z) = K_{ν−1}(z) + (2ν/z)·K_ν(z), across the
	// orders a 2 560-claim release needs.
	for _, c := range []struct{ nu, z float64 }{{7, 0.5}, {10, 3}, {79, 20}, {1279, 50}, {1279, 1e4}} {
		lo, mid, hi := LogBesselK(c.nu-1, c.z), LogBesselK(c.nu, c.z), LogBesselK(c.nu+1, c.z)
		rhs := mid + math.Log(2*c.nu/c.z+math.Exp(lo-mid))
		if math.Abs(hi-rhs) > 1e-9*math.Max(1, math.Abs(hi)) {
			t.Errorf("nu = %v, z = %v: ln K_{ν+1} = %.12g, recurrence gives %.12g", c.nu, c.z, hi, rhs)
		}
	}
	if !math.IsNaN(LogBesselK(1, 0)) || !math.IsNaN(LogBesselK(1, -1)) {
		t.Error("ln K_ν(z) for z <= 0 is not NaN")
	}
}

// TestRadialLossLaplace: at k = 1 the polar quadrature of a Laplace log
// density reproduces the Laplace mechanism's closed-form curve
// δ(ε) = 1 − e^{(ε−μ)/2} for ε < μ, and 0 beyond, with μ = a·D.
func TestRadialLossLaplace(t *testing.T) {
	sens, _ := radialParams(t)
	a := math.Sqrt(2 * radialLambda2)
	mu := a * sens
	eachGrid(t, func(t *testing.T, grid Grid) {
		l, err := NewRadialLoss(func(r float64) float64 { return -a * r }, 1, sens, grid)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for eps := 0.0; eps < mu+2; eps += 0.1 {
			want := math.Max(0, -math.Expm1((eps-mu)/2))
			worst = math.Max(worst, math.Abs(l.Delta(eps)-want))
		}
		t.Logf("mu = %.4f: worst |δ − Laplace| = %.3g", mu, worst)
		if worst > 1e-5 {
			t.Errorf("worst |δ − Laplace| = %.3g, want <= 1e-5", worst)
		}
		// The mixture's own g at k = 1 is the same Laplace density.
		m := oneUserLoss(t, 1, sens, grid)
		if got, want := m.Epsilon(radialDelta), mu+2*math.Log(1-radialDelta); math.Abs(got-want) > 1e-4 {
			t.Errorf("k = 1 mixture: ε(%v) = %.6f, Laplace gives %.6f", radialDelta, got, want)
		}
	})
}

// TestRadialLossMonotone: δ is non-increasing in ε, and at the charge it
// is non-decreasing in the shift length D = 1Δ … 6Δ at k = 16.
func TestRadialLossMonotone(t *testing.T) {
	sens, epsW := radialParams(t)
	eachGrid(t, func(t *testing.T, grid Grid) {
		l := oneUserLoss(t, 16, 4*sens, grid)
		prev := math.Inf(1)
		for eps := 0.0; eps <= 200; eps += 0.5 {
			d := l.Delta(eps)
			if math.IsNaN(d) || d < 0 || d > prev {
				t.Fatalf("δ(%v) = %v after %v: not non-increasing in [0, 1]", eps, d, prev)
			}
			prev = d
		}
		prev = 0
		for m := 1; m <= 6; m++ {
			d := oneUserLoss(t, 16, float64(m)*sens, grid).Delta(epsW)
			t.Logf("k = 16, D = %dΔ: δ(ε_w) = %.4f", m, d)
			if d < prev {
				t.Errorf("D = %dΔ: δ(ε_w) = %.5f below %.5f at D = %dΔ", m, d, prev, m-1)
			}
			prev = d
		}
	})
}

// TestOneUserTableRows pins docs/PRIVACY.md's one-user table: each
// release's δ at the charge to 1e-3 and its ε at δ = 0.3 to 0.5. The
// first two rows are the one-claim relation's (D = Δ) for comparison.
func TestOneUserTableRows(t *testing.T) {
	sens, epsW := radialParams(t)
	rows := []struct {
		name             string
		k                int
		shift            float64
		windows          float64 // the charge is windows·ε_w
		delta, epsilon03 float64
	}{
		{"16-claim submission, one claim", 16, sens, 1, 0.0003, 18.6},
		{"32-claim submission, one claim", 32, sens, 1, 0.019, 26.1},
		{"16-claim submission, one user", 16, 4 * sens, 1, 0.111, 59.1},
		{"32-claim submission, one user", 32, sens * math.Sqrt(32), 1, 0.961, 103.1},
		{"4 windows × 16, one V, one user", 64, 8 * sens, 4, 0.025, 186.3},
		{"10 windows × 16, one V, one user", 160, sens * math.Sqrt(160), 10, 0.016, 427.4},
	}
	eachGrid(t, func(t *testing.T, grid Grid) {
		for _, r := range rows {
			l := oneUserLoss(t, r.k, r.shift, grid)
			d, e := l.Delta(r.windows*epsW), l.Epsilon(radialDelta)
			t.Logf("%s: δ(%.2f) = %.4f, ε(0.3) = %.2f, ε(0.01) = %.1f", r.name, r.windows*epsW, d, e, l.Epsilon(0.01))
			if math.Abs(d-r.delta) > 1e-3 {
				t.Errorf("%s: δ at the charge = %.5f, want %v ± 1e-3", r.name, d, r.delta)
			}
			if math.Abs(e-r.epsilon03) > 0.5 {
				t.Errorf("%s: ε(0.3) = %.3f, want %v ± 0.5", r.name, e, r.epsilon03)
			}
		}
	})
}

// TestOneUserEpsilonPerClaim pins what linear composition rests on.
// With one V and K claims in all (D = Δ·√K), ε(K)/K at δ = 0.3 never
// rises with K — so a per-submission charge that covers one submission
// covers the campaign — and it stays above, and at K = 2 560 within 1 %
// of, c∞ = ½·ln(1 + 2ε_w). The constant charge ε_w covers a one-user
// submission of K claims for K ≤ 18 and under-charges from K = 19 on.
func TestOneUserEpsilonPerClaim(t *testing.T) {
	sens, epsW := radialParams(t)
	cInf := 0.5 * math.Log1p(2*epsW)
	ks := []int{}
	for k := 1; k <= 40; k++ {
		ks = append(ks, k)
	}
	ks = append(ks, 64, 160, 640, 2560)
	eachGrid(t, func(t *testing.T, grid Grid) {
		prev := math.Inf(1)
		for _, k := range ks {
			perClaim := oneUserLoss(t, k, sens*math.Sqrt(float64(k)), grid).Epsilon(radialDelta) / float64(k)
			if perClaim > prev {
				t.Errorf("K = %d: ε/K = %.5f rose from %.5f", k, perClaim, prev)
			}
			if perClaim < cInf {
				t.Errorf("K = %d: ε/K = %.5f below c∞ = %.5f", k, perClaim, cInf)
			}
			if covered := perClaim*float64(k) <= epsW; covered != (k <= 18) {
				t.Errorf("K = %d: ε(0.3) = %.3f against ε_w = %.3f: covered %v, want %v",
					k, perClaim*float64(k), epsW, covered, k <= 18)
			}
			prev = perClaim
		}
		t.Logf("K = 2560: ε/K = %.4f, c∞ = %.4f", prev, cInf)
		if prev > 1.01*cInf {
			t.Errorf("K = 2560: ε/K = %.5f, more than 1%% above c∞ = %.5f", prev, cInf)
		}
	})
}

// TestOneUserMonteCarlo cross-checks the quadrature without its polar
// decomposition: seeded draws of the 16-claim release y = √V·Z, with the
// loss g(|y|) − g(|y − D·e₁|) from the exact g, estimate δ(ε_w) for the
// one-user relation within 4 standard errors of the quadrature's value.
func TestOneUserMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo cross-check: run without -short")
	}
	const (
		k     = 16
		draws = 100000
	)
	sens, epsW := radialParams(t)
	shift := 4 * sens
	g := MixtureLogRadial(k, radialLambda2)
	rng := randx.New(17)
	var sum, sumSq float64
	for n := 0; n < draws; n++ {
		sd := math.Sqrt(rng.Exp() / radialLambda2)
		var r2, s2 float64
		for i := 0; i < k; i++ {
			y := sd * rng.Norm()
			r2 += y * y
			if i == 0 {
				y -= shift
			}
			s2 += y * y
		}
		v := math.Max(0, -math.Expm1(epsW-(g(math.Sqrt(r2))-g(math.Sqrt(s2)))))
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	se := math.Sqrt((sumSq/draws - mean*mean) / draws)
	want := oneUserLoss(t, k, shift, DefaultGrid).Delta(epsW)
	t.Logf("Monte Carlo δ(ε_w) = %.4f ± %.4f over %d draws; quadrature %.4f", mean, se, draws, want)
	if math.Abs(mean-want) > 4*se {
		t.Errorf("Monte Carlo δ = %.5f ± %.5f, quadrature %.5f: more than 4 SE apart", mean, se, want)
	}
}
