// Package baselines implements the comparison systems of the paper's
// evaluation: Bayesian Optimization over the configuration space (§6.4,
// Fig 8), Spark's PID-based back-pressure rate limiter (abstract), and
// random search. Each drives the same simulated engine through the same
// knobs NoStop uses, so Fig 7/8-style comparisons are apples to apples.
package baselines

import (
	"errors"
	"fmt"
	"math"

	"nostop/internal/linalg"
)

// GP is a Gaussian-process regressor with a squared-exponential kernel,
//
//	k(x, x') = σf²·exp(−‖x−x'‖² / (2ℓ²)) + σn²·𝟙[x=x'],
//
// the standard surrogate for Bayesian optimization of a noisy black box.
type GP struct {
	LengthScale float64 // ℓ
	SignalVar   float64 // σf²
	NoiseVar    float64 // σn²

	xs    [][]float64
	ys    []float64
	yMean float64
	chol  *linalg.Cholesky
	alpha linalg.Vector // K⁻¹·(y−ȳ)
}

// NewGP returns a GP with the given hyperparameters.
func NewGP(lengthScale, signalVar, noiseVar float64) (*GP, error) {
	if lengthScale <= 0 || signalVar <= 0 || noiseVar < 0 {
		return nil, fmt.Errorf("baselines: bad GP hyperparameters ℓ=%v σf²=%v σn²=%v",
			lengthScale, signalVar, noiseVar)
	}
	return &GP{LengthScale: lengthScale, SignalVar: signalVar, NoiseVar: noiseVar}, nil
}

func (g *GP) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return g.SignalVar * math.Exp(-d2/(2*g.LengthScale*g.LengthScale))
}

// Fit conditions the GP on observations. The targets are centred on their
// mean so the prior mean matches the data level.
func (g *GP) Fit(xs [][]float64, ys []float64) error {
	if len(xs) != len(ys) {
		return errors.New("baselines: GP.Fit length mismatch")
	}
	if len(xs) == 0 {
		return errors.New("baselines: GP.Fit with no observations")
	}
	n := len(xs)
	g.xs = make([][]float64, n)
	for i, x := range xs {
		g.xs[i] = append([]float64(nil), x...)
	}
	g.ys = append([]float64(nil), ys...)
	g.yMean = 0
	for _, y := range ys {
		g.yMean += y
	}
	g.yMean /= float64(n)

	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.kernel(g.xs[i], g.xs[j])
			if i == j {
				v += g.NoiseVar + 1e-8 // jitter for conditioning
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	chol, err := linalg.NewCholesky(k)
	if err != nil {
		return fmt.Errorf("baselines: GP kernel not PD: %w", err)
	}
	g.chol = chol
	centered := make(linalg.Vector, n)
	for i, y := range ys {
		centered[i] = y - g.yMean
	}
	g.alpha = chol.Solve(centered)
	return nil
}

// Predict returns the posterior mean and variance at x. Calling Predict
// before Fit returns the prior (ȳ=0, σf²+σn²).
func (g *GP) Predict(x []float64) (mean, variance float64) {
	if g.chol == nil {
		return 0, g.SignalVar + g.NoiseVar
	}
	n := len(g.xs)
	kstar := make(linalg.Vector, n)
	for i := 0; i < n; i++ {
		kstar[i] = g.kernel(x, g.xs[i])
	}
	mean = g.yMean + kstar.Dot(g.alpha)
	v := g.chol.SolveLower(kstar)
	variance = g.SignalVar + g.NoiseVar - v.Dot(v)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return mean, variance
}

// stdNormPDF is the standard normal density.
func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// stdNormCDF is the standard normal distribution function.
func stdNormCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// ExpectedImprovement computes EI for *minimisation* at x against the best
// (lowest) observed value.
func (g *GP) ExpectedImprovement(x []float64, best float64) float64 {
	mean, variance := g.Predict(x)
	sigma := math.Sqrt(variance)
	if sigma < 1e-9 {
		if mean < best {
			return best - mean
		}
		return 0
	}
	z := (best - mean) / sigma
	return (best-mean)*stdNormCDF(z) + sigma*stdNormPDF(z)
}
