// Package spsa implements Simultaneous Perturbation Stochastic Approximation
// (Spall 1998), the optimization core of NoStop (§4.2).
//
// SPSA minimises a function G(θ) observable only through noisy measurements
// y(θ) = G(θ) + ξ. Each iteration perturbs all p components of θ
// simultaneously with a Rademacher (±1) vector Δk and estimates the gradient
// from just two measurements, regardless of dimension:
//
//	ĝk(θk)[i] = (y(θk + ck·Δk) − y(θk − ck·Δk)) / (2·ck·Δk[i])
//	θk+1 = θk − ak·ĝk(θk)
//
// with gain sequences ak = a/(A+k+1)^α and ck = c/(k+1)^γ. The α = 0.602,
// γ = 0.101 defaults are Spall's practically-effective values, and the
// convergence conditions B.1”–B.6” discussed in §4.2.4 hold for these
// sequences with symmetric Bernoulli perturbations.
//
// The package is generic: nothing here knows about Spark, batches, or
// streaming. NoStop's controller (internal/core) drives it against the
// streaming engine, and examples/custombox drives it against an arbitrary
// user-defined black box — the portability the paper claims in §1.
package spsa

import (
	"errors"
	"fmt"
	"math"

	"nostop/internal/approx"
	"nostop/internal/rng"
)

// Params are the gain-sequence coefficients.
type Params struct {
	// A is the stability constant; §5.6 recommends ≤10% of the expected
	// iteration count and the paper uses A = 1.
	A float64
	// Aa is the numerator a of the step-size sequence ak; §5.6 recommends
	// half the (normalised) configuration range.
	Aa float64
	// C is the numerator c of the perturbation sequence ck; §5.6
	// recommends roughly the standard deviation of the measurements y(θ).
	C float64
	// Alpha is the ak decay exponent (default 0.602).
	Alpha float64
	// Gamma is the ck decay exponent (default 0.101).
	Gamma float64
	// MaxStep, when positive, caps the Euclidean length of each update
	// step. This is Spall's practical "blocking" safeguard: early
	// iterations combine a large ak with potentially huge noisy gradient
	// estimates, and one unlucky step can otherwise fling θ across the
	// entire feasible region. 0 disables clipping.
	MaxStep float64
}

// DefaultParams returns the paper's recommended coefficients for a given
// normalised configuration span and measurement noise scale: A = 1,
// a = span/2, c = max(noiseStd, a small floor), α = 0.602, γ = 0.101.
func DefaultParams(span, noiseStd float64) Params {
	c := noiseStd
	if c < 1e-6 {
		c = 1e-6
	}
	return Params{A: 1, Aa: span / 2, C: c, Alpha: 0.602, Gamma: 0.101}
}

// validate fills zero exponents with defaults and checks signs.
func (p *Params) validate() error {
	if approx.Unset(p.Alpha) {
		p.Alpha = 0.602
	}
	if approx.Unset(p.Gamma) {
		p.Gamma = 0.101
	}
	if p.Aa <= 0 || p.C <= 0 || p.A < 0 {
		return fmt.Errorf("spsa: non-positive gain coefficients a=%v c=%v A=%v", p.Aa, p.C, p.A)
	}
	if p.Alpha <= p.Gamma {
		return fmt.Errorf("spsa: alpha %v must exceed gamma %v for convergence", p.Alpha, p.Gamma)
	}
	return nil
}

// Optimizer carries SPSA state over a box-constrained domain.
type Optimizer struct {
	params Params
	lo, hi []float64
	x      []float64
	k      int // completed iterations
	r      *rng.Stream

	pendingDelta []float64
	pendingCk    float64
}

// Common errors.
var (
	ErrDimensionMismatch = errors.New("spsa: dimension mismatch")
	ErrNoPendingPerturb  = errors.New("spsa: Update called without a pending Perturb")
	ErrPerturbTwice      = errors.New("spsa: Perturb called with one already pending")
)

// New returns an optimizer starting at initial within the box [lo, hi].
func New(initial, lo, hi []float64, params Params, r *rng.Stream) (*Optimizer, error) {
	if len(initial) == 0 {
		return nil, errors.New("spsa: empty initial point")
	}
	if len(lo) != len(initial) || len(hi) != len(initial) {
		return nil, ErrDimensionMismatch
	}
	for i := range lo {
		if lo[i] >= hi[i] {
			return nil, fmt.Errorf("spsa: bound %d inverted: [%v, %v]", i, lo[i], hi[i])
		}
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	if r == nil {
		r = rng.New(1)
	}
	o := &Optimizer{
		params: params,
		lo:     append([]float64(nil), lo...),
		hi:     append([]float64(nil), hi...),
		x:      clampVec(append([]float64(nil), initial...), lo, hi),
		r:      r,
	}
	return o, nil
}

// K returns the number of completed iterations.
func (o *Optimizer) K() int { return o.k }

// Theta returns a copy of the current estimate.
func (o *Optimizer) Theta() []float64 { return append([]float64(nil), o.x...) }

// Gains returns (ak, ck) for the iteration about to run (Algorithm 1's
// values after its k++).
func (o *Optimizer) Gains() (ak, ck float64) {
	i := float64(o.k + 1)
	ak = o.params.Aa / math.Pow(i+1+o.params.A, o.params.Alpha)
	ck = o.params.C / math.Pow(i+1, o.params.Gamma)
	return ak, ck
}

// Perturb draws a Rademacher vector Δ and returns the two bounded probe
// points θ⁺ = B(θ + ck·Δ) and θ⁻ = B(θ − ck·Δ) (B = checkBound, Algorithm 1).
// The caller measures the objective at both and passes the results to
// Update. Calling Perturb again before Update is an error.
func (o *Optimizer) Perturb() (plus, minus []float64, err error) {
	if o.pendingDelta != nil {
		return nil, nil, ErrPerturbTwice
	}
	_, ck := o.Gains()
	delta := make([]float64, len(o.x))
	plus = make([]float64, len(o.x))
	minus = make([]float64, len(o.x))
	for i := range o.x {
		delta[i] = o.r.Rademacher()
		plus[i] = o.x[i] + ck*delta[i]
		minus[i] = o.x[i] - ck*delta[i]
	}
	plus = clampVec(plus, o.lo, o.hi)
	minus = clampVec(minus, o.lo, o.hi)
	o.pendingDelta = delta
	o.pendingCk = ck
	return plus, minus, nil
}

// Update consumes the two measurements from the pending perturbation,
// applies the SPSA step θ ← B(θ − ak·ĝ), advances the iteration counter,
// and returns a copy of the new estimate.
func (o *Optimizer) Update(yPlus, yMinus float64) ([]float64, error) {
	if o.pendingDelta == nil {
		return nil, ErrNoPendingPerturb
	}
	ak, _ := o.Gains()
	diff := yPlus - yMinus
	step := make([]float64, len(o.x))
	var norm2 float64
	for i := range o.x {
		ghat := diff / (2 * o.pendingCk * o.pendingDelta[i])
		step[i] = -ak * ghat
		norm2 += step[i] * step[i]
	}
	if o.params.MaxStep > 0 {
		if norm := math.Sqrt(norm2); norm > o.params.MaxStep {
			scale := o.params.MaxStep / norm
			for i := range step {
				step[i] *= scale
			}
		}
	}
	for i := range o.x {
		o.x[i] += step[i]
	}
	o.x = clampVec(o.x, o.lo, o.hi)
	o.pendingDelta = nil
	o.k++
	return o.Theta(), nil
}

// Reset implements §5.5's resetCoefficient: restart the gain sequences
// (k = 0) and move back to the given starting point so a traffic surge gets
// fresh, large steps. A pending perturbation is discarded.
func (o *Optimizer) Reset(initial []float64) error {
	return o.ResetAt(initial, 0)
}

// ResetAt moves to the given starting point and restarts the gain sequences
// at iteration k — a warm restart. k > 0 resumes with moderated steps, for
// situations where conditions shifted slightly rather than wholesale (e.g.
// a held optimum drifting out of feasibility). A pending perturbation is
// discarded.
func (o *Optimizer) ResetAt(initial []float64, k int) error {
	if len(initial) != len(o.x) {
		return ErrDimensionMismatch
	}
	if k < 0 {
		return fmt.Errorf("spsa: negative restart iteration %d", k)
	}
	o.x = clampVec(append([]float64(nil), initial...), o.lo, o.hi)
	o.k = k
	o.pendingDelta = nil
	return nil
}

func clampVec(v, lo, hi []float64) []float64 {
	for i := range v {
		if v[i] < lo[i] {
			v[i] = lo[i]
		}
		if v[i] > hi[i] {
			v[i] = hi[i]
		}
	}
	return v
}

// Step is one record in a Minimize trajectory.
type Step struct {
	K          int
	Theta      []float64
	ThetaPlus  []float64
	ThetaMinus []float64
	YPlus      float64
	YMinus     float64
}

// Minimize runs n SPSA iterations against objective, which is evaluated
// exactly twice per iteration, and returns the final estimate plus the full
// trajectory. A nil observe callback is allowed.
func Minimize(objective func([]float64) float64, initial, lo, hi []float64,
	params Params, r *rng.Stream, n int, observe func(Step)) ([]float64, error) {
	o, err := New(initial, lo, hi, params, r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		plus, minus, err := o.Perturb()
		if err != nil {
			return nil, err
		}
		yp, ym := objective(plus), objective(minus)
		theta, err := o.Update(yp, ym)
		if err != nil {
			return nil, err
		}
		if observe != nil {
			observe(Step{K: o.K(), Theta: theta, ThetaPlus: plus, ThetaMinus: minus, YPlus: yp, YMinus: ym})
		}
	}
	return o.Theta(), nil
}

// Scale maps values between a physical range [lo, hi] and the normalised
// optimization range [outLo, outHi] (§5.1's min-max normalisation: both
// control parameters are scaled into the same range so one step size suits
// both).
type Scale struct {
	Lo, Hi       float64 // physical range
	OutLo, OutHi float64 // normalised range
}

// NewScale builds a scale; ranges must be non-degenerate.
func NewScale(lo, hi, outLo, outHi float64) (Scale, error) {
	if hi <= lo || outHi <= outLo {
		return Scale{}, fmt.Errorf("spsa: degenerate scale [%v,%v]→[%v,%v]", lo, hi, outLo, outHi)
	}
	return Scale{Lo: lo, Hi: hi, OutLo: outLo, OutHi: outHi}, nil
}

// ToNorm maps a physical value into the normalised range (clamped).
func (s Scale) ToNorm(v float64) float64 {
	t := (v - s.Lo) / (s.Hi - s.Lo)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return s.OutLo + t*(s.OutHi-s.OutLo)
}

// FromNorm maps a normalised value back to the physical range (clamped).
func (s Scale) FromNorm(v float64) float64 {
	t := (v - s.OutLo) / (s.OutHi - s.OutLo)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return s.Lo + t*(s.Hi-s.Lo)
}
