// Package gptuner implements an uncertainty-aware Gaussian-process
// configuration tuner over the widened config space, after "An
// Uncertainty-Aware Approach to Optimal Configuration of Stream Processing
// Systems" (Jamshidi & Casale). It is the surrogate-model peer of the
// paper's SPSA controller and of the two-parameter BayesOpt baseline,
// reusing the same GP regression (internal/baselines/gp.go over the
// internal/linalg Cholesky solver).
//
// What "uncertainty-aware" adds over plain Bayesian optimization here:
// configuration changes are gated on the surrogate's predictive variance.
// A candidate that maximizes expected improvement but whose predictive
// standard deviation exceeds stdGate x the observed signal deviation is NOT
// applied to the live system; the tuner instead evaluates the best
// candidate the gate admits, and only relaxes to the lowest-variance
// candidate when nothing passes. On a production stream an exploratory
// reconfiguration is itself a disruption, so the gate trades search speed
// for bounded risk.
//
// Determinism contract: candidate sampling draws from a dedicated
// rng.Stream in a fixed order, acquisition ties break toward the earlier
// candidate, and all decisions happen in batch-completion callbacks.
// Failure awareness mirrors §5.4: fault-window and first-after-reconfigure
// batches never enter a measurement window, measurement restarts after a
// fault clears, and the tuner defers reconfigurations while a fault is in
// effect.
package gptuner

import (
	"errors"
	"math"

	"nostop/internal/baselines"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/rng"
	"nostop/internal/stats"
)

// Options configure the tuner. Zero values mean defaults.
type Options struct {
	// Space is the configuration lattice to search. Zero: the canonical
	// widened space over the engine's bounds and the workload's peak
	// nominal rate. Intersected with the engine's bounds at construction.
	Space core.ConfigSpace
	// Seed drives design-point and candidate sampling. Nil: rng.New(13).
	Seed *rng.Stream
	// InitialDesign is the number of stratified seeding evaluations
	// (default 6).
	InitialDesign int
	// MaxEvaluations bounds the total measured configurations (default 30).
	MaxEvaluations int
}

// Tuner constants no caller varies. An acquisition round is a seeded
// random search over candidates lattice points, since the widened lattice
// is too large to grid-scan.
const (
	measureBatches = 3    // clean batches per evaluation
	candidates     = 128  // lattice points sampled per acquisition round
	rho            = 2.0  // Eq. 3's delay-overrun weight
	eiStop         = 0.05 // stop below this admissible expected improvement (the BayesOpt baseline's value)
	stdGate        = 0.8  // admit a candidate only if its posterior std is at most stdGate x the objectives' std
	lengthScale    = 4.0  // RBF length scale in the paper's [1, 20] scale, normalized by /19 like BayesOpt
	drainThreshold = 10   // queue depth that triggers a jump to the safest point in the space
)

// Evaluation is one measured configuration.
type Evaluation struct {
	Config core.FullConfig
	X      []float64 // normalized coordinates
	Y      float64   // Eq. 3 objective (lower is better)
}

// Tuner is the attached uncertainty-aware GP controller.
type Tuner struct {
	eng   core.Host
	opts  Options
	space core.ConfigSpace
	vals  [][]float64
	seed  *rng.Stream

	evals   []Evaluation
	current core.FullConfig
	acc     []float64
	await   bool
	waited  int
	inFault bool
	holding bool // a proposal is deferred until the fault clears

	attached bool
	draining bool
	done     bool
	applied  int
	drains   int
	gated    int // EI maximizers rejected by the variance gate
}

// New builds a tuner for eng, intersecting the space with the engine's
// bounds and validating it.
func New(eng core.Host, opts Options) (*Tuner, error) {
	if opts.Seed == nil {
		opts.Seed = rng.New(13)
	}
	if opts.InitialDesign == 0 {
		opts.InitialDesign = 6
	}
	if opts.MaxEvaluations == 0 {
		opts.MaxEvaluations = 30
	}
	space := opts.Space
	if len(space.Axes) == 0 {
		_, peak := eng.Workload().RateBand()
		space = core.WidenedSpace(eng.ConfigBounds(), peak)
	}
	space = space.Intersect(eng.ConfigBounds())
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxEvaluations < opts.InitialDesign {
		return nil, errors.New("gptuner: MaxEvaluations below InitialDesign")
	}
	return &Tuner{
		eng:   eng,
		opts:  opts,
		space: space,
		vals:  space.Lattice(),
		seed:  opts.Seed.Split("gp"),
	}, nil
}

// Attach registers the batch listener and applies the first design point.
func (t *Tuner) Attach() error {
	if t.attached {
		return errors.New("gptuner: already attached")
	}
	t.attached = true
	t.eng.AddListener(engine.ListenerFunc(t.onBatch))
	return t.evaluate(t.designPoint(0))
}

// designPoint returns the i-th stratified seeding configuration: the batch
// interval axis is stratified across the design, the rest jittered.
func (t *Tuner) designPoint(i int) core.FullConfig {
	x := make([]float64, len(t.space.Axes))
	for j := range x {
		if j == 0 {
			x[j] = (float64(i) + t.seed.Float64()) / float64(t.opts.InitialDesign)
		} else {
			x[j] = t.seed.Float64()
		}
	}
	return t.space.FromNorm(x)
}

// evaluate applies a configuration and starts its measurement window.
func (t *Tuner) evaluate(cfg core.FullConfig) error {
	t.current = cfg
	t.acc = t.acc[:0]
	t.await = cfg.Engine() != t.eng.Config()
	t.waited = 0
	t.applied++
	return t.space.Apply(t.eng, cfg)
}

func (t *Tuner) onBatch(bs engine.BatchStats) {
	if t.done {
		return
	}
	if bs.FaultActive {
		t.inFault = true
		return
	}
	if t.inFault {
		// First clean batch after a fault: restart the window so fault
		// spillover never contaminates a measurement (§5.4 recalibration).
		t.inFault = false
		t.acc = t.acc[:0]
		if t.holding && !t.eng.FaultInEffect() {
			t.holding = false
			t.next()
			return
		}
	}
	if t.draining {
		if t.eng.QueueLen() == 0 && bs.SchedulingDelay <= bs.Config.BatchInterval {
			t.draining = false
			t.next()
		}
		return
	}
	if t.await {
		if bs.FirstAfterReconfig {
			t.await = false
			return
		}
		t.waited++
		if t.waited < 25 {
			return
		}
		t.await = false
	} else if bs.FirstAfterReconfig {
		return
	}
	t.acc = append(t.acc, bs.ProcessingTime.Seconds()+bs.SchedulingDelay.Seconds())
	if q := t.eng.QueueLen(); q > drainThreshold {
		// Emergency: score the point with its projected drain cost and
		// stabilize at the safest corner of the space (if no fault is in
		// effect — during one we just wait for the queue to clear).
		projected := stats.Mean(t.acc) * float64(1+q)
		t.record(projected)
		t.draining = true
		t.drains++
		if !t.eng.FaultInEffect() {
			safe := t.space.Clamp(core.FullConfig{BatchInterval: 1 << 62, Executors: 1 << 30})
			t.applied++
			_ = t.space.Apply(t.eng, safe)
		}
		return
	}
	if len(t.acc) < measureBatches {
		return
	}
	t.record(stats.Mean(t.acc))
	t.next()
}

// record scores the just-measured configuration with Eq. 3.
func (t *Tuner) record(measured float64) {
	interval := t.current.BatchInterval.Seconds()
	y := interval + rho*math.Max(0, measured-interval)
	t.evals = append(t.evals, Evaluation{Config: t.current, X: t.space.Norm(t.current), Y: y})
}

// next chooses the following configuration: remaining design points first,
// then the variance-gated EI maximizer. Reconfigurations are deferred while
// a fault is in effect.
func (t *Tuner) next() {
	if t.eng.FaultInEffect() {
		t.holding = true
		t.inFault = true
		return
	}
	if len(t.evals) >= t.opts.MaxEvaluations {
		t.finish()
		return
	}
	if len(t.evals) < t.opts.InitialDesign {
		_ = t.evaluate(t.designPoint(len(t.evals)))
		return
	}
	cfg, ei, err := t.propose()
	if err != nil || ei < eiStop {
		t.finish()
		return
	}
	_ = t.evaluate(cfg)
}

// propose fits the GP on all evaluations and picks the next point from a
// seeded random sample of the lattice: the EI maximizer if the variance
// gate admits it, otherwise the best admissible candidate, otherwise the
// lowest-variance candidate (so the search always progresses).
func (t *Tuner) propose() (core.FullConfig, float64, error) {
	xs := make([][]float64, len(t.evals))
	ys := make([]float64, len(t.evals))
	var o stats.Online
	best := math.Inf(1)
	for i, e := range t.evals {
		xs[i] = e.X
		ys[i] = e.Y
		o.Add(e.Y)
		if e.Y < best {
			best = e.Y
		}
	}
	signal := o.Var()
	if signal < 1 {
		signal = 1
	}
	gp, err := baselines.NewGP(lengthScale/19, signal, math.Max(0.05*signal, 0.25))
	if err != nil {
		return core.FullConfig{}, 0, err
	}
	if err := gp.Fit(xs, ys); err != nil {
		return core.FullConfig{}, 0, err
	}
	gate := stdGate * o.Std()
	type cand struct {
		cfg core.FullConfig
		ei  float64
		std float64
	}
	var bestAll, bestAdm, calmest cand
	bestAll.ei, bestAdm.ei = -1, -1
	calmest.std = math.Inf(1)
	idx := make([]int, len(t.vals))
	for c := 0; c < candidates; c++ {
		for i := range idx {
			idx[i] = t.seed.Intn(len(t.vals[i]))
		}
		cfg := t.space.At(t.vals, idx)
		x := t.space.Norm(cfg)
		ei := EI(gp, x, best, xs)
		_, variance := gp.Predict(x)
		std := math.Sqrt(variance)
		if ei > bestAll.ei {
			bestAll = cand{cfg, ei, std}
		}
		if std <= gate && ei > bestAdm.ei {
			bestAdm = cand{cfg, ei, std}
		}
		if std < calmest.std {
			calmest = cand{cfg, ei, std}
		}
	}
	if bestAll.ei < eiStop {
		return core.FullConfig{}, bestAll.ei, nil // search has dried up
	}
	if bestAll.std <= gate {
		return bestAll.cfg, bestAll.ei, nil
	}
	// The EI maximizer is too uncertain to inflict on the live system.
	t.gated++
	if bestAdm.ei >= 0 {
		return bestAdm.cfg, math.Max(bestAdm.ei, eiStop), nil
	}
	return calmest.cfg, math.Max(calmest.ei, eiStop), nil
}

// finish applies the best observed configuration and stops searching.
func (t *Tuner) finish() {
	t.done = true
	if best, ok := t.Best(); ok {
		t.applied++
		_ = t.space.Apply(t.eng, best.Config)
	}
}

// Best returns the lowest-objective evaluation so far.
func (t *Tuner) Best() (Evaluation, bool) {
	if len(t.evals) == 0 {
		return Evaluation{}, false
	}
	best := t.evals[0]
	for _, e := range t.evals[1:] {
		if e.Y < best.Y {
			best = e
		}
	}
	return best, true
}

// EI returns the expected-improvement acquisition of candidate x given a
// fitted surrogate, the incumbent (best observed) objective value, and the
// set of already-evaluated inputs. Points coinciding with an evaluated
// input — the incumbent in particular — score exactly zero: in the
// noise-free limit the posterior collapses there, so re-measuring a known
// point is never informative, and the exact floor keeps the search from
// re-proposing the incumbent forever on surrogate noise.
func EI(gp *baselines.GP, x []float64, best float64, evaluated [][]float64) float64 {
	for _, e := range evaluated {
		if len(e) != len(x) {
			continue
		}
		d2 := 0.0
		for i := range x {
			d := x[i] - e[i]
			d2 += d * d
		}
		if d2 < 1e-18 {
			return 0
		}
	}
	ei := gp.ExpectedImprovement(x, best)
	if ei < 0 {
		return 0
	}
	return ei
}

// Space returns the (intersected) space the tuner searches.
func (t *Tuner) Space() core.ConfigSpace { return t.space }

// Evaluations returns all measured configurations in order.
func (t *Tuner) Evaluations() []Evaluation { return t.evals }

// Done reports whether the search has stopped.
func (t *Tuner) Done() bool { return t.done }

// ConfigureSteps returns configuration changes requested.
func (t *Tuner) ConfigureSteps() int { return t.applied }

// Drains returns emergency stabilization episodes.
func (t *Tuner) Drains() int { return t.drains }

// Gated returns EI maximizers rejected by the predictive-variance gate.
func (t *Tuner) Gated() int { return t.gated }
