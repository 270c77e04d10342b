package theory

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// This file computes the privacy curve of one user's release under the
// one-user relation: a device that samples V ~ Exp(lambda2) once and
// adds N(0, V·I) noise to a k-claim release. The noise is radial, so
// only the noise length R and the angle θ between the noise and the
// shift between the two neighbouring inputs matter. Under the release P
// the noise is R·u with u uniform on the sphere, and the privacy loss
// against the shifted release Q is
//
//	L(R, θ) = g(R) − g(√(R² − 2RD·cos θ + D²)),
//
// with g the log radial density and D the shift length. The curve is
// δ(ε) = E_P[(1 − e^{ε−L})₊] (the hockey-stick divergence; the
// privacy-loss distribution form of Sommer, Meiser & Mohammadi 2019).
// By symmetry of radial noise, swapping P and Q gives the same curve.

// Grid sizes of the polar quadrature (RadialLoss): nodes along the noise
// length R and along the angle θ, and points of the tables that g and
// the two distributions' quantiles are read from. At these sizes every
// pin in radial_test.go holds, and again at twice them.
const (
	RadiusNodes = 150
	AngleNodes  = 100
	TableNodes  = 1000
)

// Grid is a polar quadrature's resolution. DefaultGrid uses the named
// constants; tests double it to show the numbers have converged.
type Grid struct {
	Radius, Angle, Table int
}

// DefaultGrid is the resolution RadialLoss is pinned at.
var DefaultGrid = Grid{Radius: RadiusNodes, Angle: AngleNodes, Table: TableNodes}

const (
	// besselTail is how far below its peak, in nats, the trapezoid sum
	// for ln K_ν stops.
	besselTail = 40
	// radialTail is how far below its peak, in nats, the log-weight of
	// the noise length may fall at either end of the R grid.
	radialTail = 25
	// angleWindow bounds the θ grid to π/2 ± angleWindow/√k: the angle
	// density sin^{k−2}θ has standard deviation about 1/√k around π/2,
	// so the window drops mass below e^{−angleWindow²/2}.
	angleWindow = 14
	// radialTemper is the power of the noise length's density whose
	// quantiles place the R nodes.
	radialTemper = 0.5
)

// LogBesselK returns ln K_ν(z), the modified Bessel function of the
// second kind, for z > 0, by the trapezoid rule on
//
//	K_ν(z) = ∫₀^∞ e^{−z·cosh t}·cosh(νt) dt,
//
// summed in log space so that neither a tiny K (large z) nor a huge one
// (large ν, small z) leaves the float range. The integrand is even and
// analytic, so the trapezoid rule converges geometrically; the step
// resolves the integrand's peak, whose width is about (z² + ν²)^{−1/4}.
func LogBesselK(nu, z float64) float64 {
	nu = math.Abs(nu)
	if !(z > 0) || math.IsInf(z, 1) || math.IsNaN(nu) {
		return math.NaN()
	}
	h := math.Min(0.35, 0.5/math.Pow(z*z+nu*nu, 0.25))
	logCosh := func(x float64) float64 {
		x = math.Abs(x)
		return x + math.Log1p(math.Exp(-2*x)) - math.Ln2
	}
	// φ(t) + z, with cosh t − 1 = 2·sinh²(t/2) so that a huge z keeps
	// the t²/2 it multiplies; the −z comes back at the end.
	phi := func(t float64) float64 {
		sh := math.Sinh(t / 2)
		return -2*z*sh*sh + logCosh(nu*t)
	}
	// The integrand's log is unimodal in t ≥ 0 with its peak near
	// asinh(ν/z). Walk away from it in both directions, accumulating
	// Σ e^{φ−m} against the running maximum m, until a term falls
	// besselTail below it.
	m, s := math.Inf(-1), 0.0
	term := func(j int) (done bool) {
		v, w := phi(float64(j)*h), 1.0
		if j == 0 {
			w = 0.5
		}
		if v > m {
			s, m = s*math.Exp(m-v)+w, v
		} else {
			s += w * math.Exp(v-m)
		}
		return v < m-besselTail
	}
	j0 := int(math.Round(math.Asinh(nu/z) / h))
	for j := j0; !term(j); j++ {
	}
	for j := j0 - 1; j >= 0 && !term(j); j-- {
	}
	return -z + m + math.Log(s*h)
}

// MixtureLogRadial returns g(r) = (1 − k/2)·ln r + ln K_ν(√(2λ₂)·r),
// ν = |k/2 − 1|: the log density, up to a constant, of k-dimensional
// N(0, V·I) noise at distance r from its centre, mixed over
// V ~ Exp(lambda2). At k = 1 it is the Laplace(0, 1/√(2λ₂)) density
// the scale-mixture identity gives.
func MixtureLogRadial(k int, lambda2 float64) func(r float64) float64 {
	a := math.Sqrt(2 * lambda2)
	nu := math.Abs(float64(k)/2 - 1)
	return func(r float64) float64 {
		return (1-float64(k)/2)*math.Log(r) + LogBesselK(nu, a*r)
	}
}

// RadialLoss is the privacy-loss distribution of a k-dimensional radial
// noise release against the same release shifted by D, discretized on
// the polar grid. It is held as one row per R node: the losses over the
// θ nodes, sorted from the largest, which all carry the row's weight,
// and the running sums tail[j] = Σ_{i≤j} weight·e^{loss[j]−loss[i]}
// that make δ(ε) a binary search per row.
type RadialLoss struct {
	rows []lossRow
}

type lossRow struct {
	weight     float64
	loss, tail []float64
}

// NewRadialLoss discretizes the privacy loss of radial noise with log
// radial density g (up to a constant, decreasing in r) in k dimensions
// against a shift of length shift.
//
// Both grids are midpoint grids in probability, so they follow the
// noise's scale whatever k is. The θ nodes sit at the quantiles
// (i + ½)/n of the angle, whose density is sin^{k−2}θ; k = 1 has the two
// directions θ = 0 and π, and gives the R grid the nodes an angle grid
// would have had. The R nodes sit at the quantiles of the noise
// length's density p in x = ln R (log density k·x + g(e^x)) raised to
// radialTemper, and carry weight ∝ p^{1−radialTemper}, which spreads
// them into the tails where the large losses are. At the shifted radius
// g is read from a log-r table by cubic interpolation.
func NewRadialLoss(g func(float64) float64, k int, shift float64, grid Grid) (*RadialLoss, error) {
	if k < 1 || !(shift > 0) || math.IsInf(shift, 1) || grid.Radius < 1 || grid.Angle < 1 || grid.Table < 4 {
		return nil, fmt.Errorf("%w: k = %d, shift = %v, grid %+v", ErrBadParam, k, shift, grid)
	}
	xlo, xhi, err := radialRange(g, k)
	if err != nil {
		return nil, err
	}
	// g over every radius a node or its shift can reach; below the table
	// g is read as its first entry, which overstates the loss there.
	gt := newTable(xlo-10, math.Log(math.Exp(xhi)+shift), grid.Table, func(t float64) float64 { return g(math.Exp(t)) })

	var cs []float64
	nr := grid.Radius
	if k == 1 {
		cs = []float64{1, -1}
		nr = grid.Radius * grid.Angle / 2
	} else {
		half := math.Min(math.Pi/2, angleWindow/math.Sqrt(float64(k)))
		logSin := func(th float64) float64 {
			if k == 2 {
				return 0
			}
			// |sin| because the last table point may round past π.
			return float64(k-2) * math.Log(math.Abs(math.Sin(th)))
		}
		ths := quantiles(logSin, math.Pi/2-half, math.Pi/2+half, grid.Table, grid.Angle)
		cs = make([]float64, len(ths))
		for j, th := range ths {
			cs[j] = math.Cos(th)
		}
	}
	logp := func(x float64) float64 { return float64(k)*x + gt.at(x) }
	xs := quantiles(func(x float64) float64 { return radialTemper * logp(x) }, xlo, xhi, grid.Table, nr)
	ws := make([]float64, len(xs))
	for i, x := range xs {
		ws[i] = (1 - radialTemper) * logp(x)
	}
	normalize(ws)

	l := &RadialLoss{rows: make([]lossRow, len(xs))}
	d2 := shift * shift
	loss, tail := make([]float64, len(xs)*len(cs)), make([]float64, len(xs)*len(cs))
	for i, x := range xs {
		row := lossRow{
			weight: ws[i] / float64(len(cs)),
			loss:   loss[i*len(cs) : (i+1)*len(cs)],
			tail:   tail[i*len(cs) : (i+1)*len(cs)],
		}
		r, gr := math.Exp(x), gt.at(x)
		for j, c := range cs {
			s2 := r*r - 2*r*shift*c + d2
			gs := gt.v[0]
			if s2 > 0 {
				gs = gt.at(0.5 * math.Log(s2))
			}
			row.loss[j] = gr - gs
		}
		// The loss falls as cos θ grows, so a row is sorted already
		// unless the interpolated g wiggles.
		if !slices.IsSortedFunc(row.loss, descending) {
			slices.SortFunc(row.loss, descending)
		}
		for j, L := range row.loss {
			row.tail[j] = row.weight
			if j > 0 {
				row.tail[j] += row.tail[j-1] * math.Exp(L-row.loss[j-1])
			}
		}
		l.rows[i] = row
	}
	return l, nil
}

func descending(a, b float64) int { return cmp.Compare(b, a) }

// normalize turns log-weights into weights summing to 1.
func normalize(logw []float64) {
	peak := math.Inf(-1)
	for _, v := range logw {
		peak = math.Max(peak, v)
	}
	var sum float64
	for i, v := range logw {
		logw[i] = math.Exp(v - peak)
		sum += logw[i]
	}
	for i := range logw {
		logw[i] /= sum
	}
}

// radialRange finds the span of x = ln R over which the log-weight
// k·x + g(e^x) lies within radialTail of its peak, by a coarse scan.
func radialRange(g func(float64) float64, k int) (xlo, xhi float64, err error) {
	const lo, hi, step = -60.0, 60.0, 0.5
	n := int((hi-lo)/step) + 1
	ws := make([]float64, n)
	peak, at := math.Inf(-1), -1
	for i := range ws {
		x := lo + float64(i)*step
		ws[i] = float64(k)*x + g(math.Exp(x))
		if ws[i] > peak {
			peak, at = ws[i], i
		}
	}
	if at <= 0 || at >= n-1 || math.IsInf(peak, 0) {
		return 0, 0, fmt.Errorf("%w: radial log-weight has no interior peak on ln R in [%v, %v]", ErrBadParam, lo, hi)
	}
	i0, i1 := at, at
	for i0 > 0 && ws[i0] > peak-radialTail {
		i0--
	}
	for i1 < n-1 && ws[i1] > peak-radialTail {
		i1++
	}
	return lo + float64(i0)*step, lo + float64(i1)*step, nil
}

// table samples a function on a uniform grid and reads it back by
// cubic interpolation, clamped to its end values outside the grid.
type table struct {
	lo, step float64
	v        []float64
}

func newTable(lo, hi float64, n int, f func(float64) float64) *table {
	t := &table{lo: lo, step: (hi - lo) / float64(n-1), v: make([]float64, n)}
	for i := range t.v {
		t.v[i] = f(lo + float64(i)*t.step)
	}
	return t
}

func (t *table) at(x float64) float64 {
	u := (x - t.lo) / t.step
	n := len(t.v)
	switch {
	case !(u > 0): // also -Inf and NaN
		return t.v[0]
	case u >= float64(n-1):
		return t.v[n-1]
	}
	i := int(u)
	f := u - float64(i)
	if i < 1 || i > n-3 {
		return t.v[i] + f*(t.v[i+1]-t.v[i])
	}
	// Cubic (Catmull-Rom) through the four nodes around u.
	y0, y1, y2, y3 := t.v[i-1], t.v[i], t.v[i+1], t.v[i+2]
	return y1 + f*(0.5*(y2-y0)+f*(y0-2.5*y1+2*y2-0.5*y3+f*(1.5*(y1-y2)+0.5*(y3-y0))))
}

// quantiles returns the n quantiles (i + ½)/n of the distribution on
// [lo, hi] with log density logp (up to a constant). The CDF is
// accumulated on m table points by the cubic rule
// h/24·(−p₀ + 13p₁ + 13p₂ − p₃) (the parabolic one at the two end
// intervals) and inverted with the density exponential-linear between
// table points.
func quantiles(logp func(float64) float64, lo, hi float64, m, n int) []float64 {
	h := (hi - lo) / float64(m-1)
	p := make([]float64, m)
	peak := math.Inf(-1)
	for j := range p {
		p[j] = logp(lo + float64(j)*h)
		peak = math.Max(peak, p[j])
	}
	for j := range p {
		p[j] = math.Exp(p[j] - peak)
	}
	cum := make([]float64, m)
	for j := 0; j < m-1; j++ {
		var inc float64
		switch {
		case j == 0:
			inc = h / 12 * (5*p[0] + 8*p[1] - p[2])
		case j == m-2:
			inc = h / 12 * (-p[m-3] + 8*p[m-2] + 5*p[m-1])
		default:
			inc = h / 24 * (-p[j-1] + 13*p[j] + 13*p[j+1] - p[j+2])
		}
		cum[j+1] = cum[j] + math.Max(inc, 0)
	}
	out := make([]float64, n)
	j := 0
	for i := range out {
		target := (float64(i) + 0.5) / float64(n) * cum[m-1]
		for j < m-2 && cum[j+1] <= target {
			j++
		}
		// Within [t_j, t_j+1] the density is p_j·e^{β·s}, s ∈ [0, 1].
		r := (target - cum[j]) / (cum[j+1] - cum[j])
		s := r
		if p[j] > 0 && p[j+1] > 0 {
			if beta := math.Log(p[j+1] / p[j]); math.Abs(beta) > 1e-9 {
				s = math.Log1p(r*math.Expm1(beta)) / beta
			}
		}
		out[i] = lo + (float64(j)+s)*h
	}
	return out
}

// Delta returns δ(ε) = E_P[(1 − e^{ε−L})₊] over the discretized loss.
func (l *RadialLoss) Delta(eps float64) float64 {
	d, _ := l.curve(eps)
	return d
}

// curve returns δ(ε) and its slope −E_P[e^{ε−L}·1{L > ε}]. In a row
// whose first j losses exceed ε they are j·weight − S and −S, with
// S = tail[j−1]·e^{ε−loss[j−1]}.
func (l *RadialLoss) curve(eps float64) (delta, slope float64) {
	for _, row := range l.rows {
		lo, hi := 0, len(row.loss) // row.loss[:lo] > ε >= row.loss[hi:]
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); row.loss[mid] > eps {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			s := row.tail[lo-1] * math.Exp(eps-row.loss[lo-1])
			delta += float64(lo)*row.weight - s
			slope -= s
		}
	}
	return math.Max(delta, 0), slope
}

// Epsilon returns the smallest ε ≥ 0 with δ(ε) ≤ delta, for delta in
// (0, 1): Newton's method on the continuous, non-increasing δ(ε),
// falling back to bisection when a step leaves the bracket, to a
// relative precision of 1e-12.
func (l *RadialLoss) Epsilon(delta float64) float64 {
	lo, hi := 0.0, math.Inf(-1)
	for _, row := range l.rows {
		hi = math.Max(hi, row.loss[0])
	}
	if l.Delta(lo) <= delta {
		return 0
	}
	eps := (lo + hi) / 2
	for hi-lo > 1e-12*hi {
		d, slope := l.curve(eps)
		if d > delta {
			lo = eps
		} else {
			hi = eps
		}
		next := eps - (d-delta)/slope
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if next == eps {
			break
		}
		eps = next
	}
	return eps
}
