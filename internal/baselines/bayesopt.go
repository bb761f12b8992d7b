package baselines

import (
	"errors"
	"fmt"
	"math"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/spsa"
	"nostop/internal/stats"
)

// BOOptions tune the Bayesian-optimization controller.
type BOOptions struct {
	// InitialDesign is the number of quasi-random seeding evaluations
	// before the GP drives the search; 0 means 5.
	InitialDesign int
	// MaxEvaluations stops the search after this many configuration
	// evaluations; 0 means 40.
	MaxEvaluations int
	// Seed drives the initial design; nil means rng.New(7).
	Seed *rng.Stream
}

// BayesOpt constants no caller varies.
const (
	boMeasureBatches = 3    // batches per evaluation: NoStop's window, for a fair Fig 8 comparison
	boGridSteps      = 25   // per-axis resolution of the EI maximisation grid
	boRho            = 2.0  // Eq. 3 penalty weight: NoStop's cap, so both tuners chase one objective
	boEIStop         = 0.05 // stop searching below this expected improvement (seconds)
	boDrainThreshold = 6    // batch-queue length that triggers a drain
	boLengthScale    = 4.0  // GP kernel length scale in the paper's [1, 20] units
)

// Evaluation is one measured configuration.
type Evaluation struct {
	Config engine.Config
	Y      float64 // Eq. 3 objective, seconds
	At     sim.Time
}

// BayesOpt tunes the engine by fitting a GP surrogate over the normalised
// configuration space and applying the expected-improvement maximiser. It
// is the paper's §6.4 comparison: final configurations are comparable to
// SPSA's, but each GP round evaluates only one configuration and the search
// needs more configuration changes and more wall-clock time to settle.
type BayesOpt struct {
	eng  core.System
	opts BOOptions

	intervalScale spsa.Scale
	execScale     spsa.Scale
	seed          *rng.Stream

	evals    []Evaluation
	current  engine.Config
	procAcc  []float64
	totalAcc []float64
	await    bool
	waited   int
	done     bool
	doneAt   sim.Time
	applied  int
	draining bool
	attached bool
}

// NewBayesOpt builds the controller. Call Attach after the engine starts.
func NewBayesOpt(eng core.System, opts BOOptions) (*BayesOpt, error) {
	if eng == nil {
		return nil, errors.New("baselines: nil engine")
	}
	if opts.InitialDesign == 0 {
		opts.InitialDesign = 5
	}
	if opts.MaxEvaluations == 0 {
		opts.MaxEvaluations = 40
	}
	if opts.Seed == nil {
		opts.Seed = rng.New(7)
	}
	if opts.MaxEvaluations < opts.InitialDesign {
		return nil, fmt.Errorf("baselines: MaxEvaluations %d below InitialDesign %d",
			opts.MaxEvaluations, opts.InitialDesign)
	}
	b := eng.ConfigBounds()
	is, err := spsa.NewScale(b.MinInterval.Seconds(), b.MaxInterval.Seconds(), 0, 1)
	if err != nil {
		return nil, err
	}
	es, err := spsa.NewScale(float64(b.MinExecutors), float64(b.MaxExecutors), 0, 1)
	if err != nil {
		return nil, err
	}
	return &BayesOpt{
		eng: eng, opts: opts,
		intervalScale: is, execScale: es,
		seed: opts.Seed.Split("design"),
	}, nil
}

// Attach registers with the engine and applies the first design point.
func (b *BayesOpt) Attach() error {
	if b.attached {
		return errors.New("baselines: already attached")
	}
	b.attached = true
	b.eng.AddListener(engine.ListenerFunc(b.onBatch))
	return b.evaluate(b.designPoint(0))
}

// designPoint returns the i-th quasi-random seeding configuration: a
// stratified sample that covers the box without clustering.
func (b *BayesOpt) designPoint(i int) engine.Config {
	n := b.opts.InitialDesign
	// Stratify the interval axis; jitter the executor axis.
	u := (float64(i) + b.seed.Float64()) / float64(n)
	v := b.seed.Float64()
	return b.fromNorm([]float64{u, v})
}

func (b *BayesOpt) fromNorm(x []float64) engine.Config {
	interval := time.Duration(b.intervalScale.FromNorm(x[0]) * float64(time.Second)).Round(100 * time.Millisecond)
	execs := int(math.Round(b.execScale.FromNorm(x[1])))
	return b.eng.ConfigBounds().Clamp(engine.Config{BatchInterval: interval, Executors: execs})
}

func (b *BayesOpt) toNorm(cfg engine.Config) []float64 {
	return []float64{
		b.intervalScale.ToNorm(cfg.BatchInterval.Seconds()),
		b.execScale.ToNorm(float64(cfg.Executors)),
	}
}

// evaluate applies a configuration and starts measuring it.
func (b *BayesOpt) evaluate(cfg engine.Config) error {
	b.current = cfg
	b.procAcc = b.procAcc[:0]
	b.totalAcc = b.totalAcc[:0]
	b.await = cfg != b.eng.Config()
	b.waited = 0
	b.applied++
	return b.eng.Reconfigure(cfg)
}

func (b *BayesOpt) onBatch(bs engine.BatchStats) {
	if b.done {
		return
	}
	if b.draining {
		if b.eng.QueueLen() == 0 && bs.SchedulingDelay <= bs.Config.BatchInterval {
			b.draining = false
			b.next()
		}
		return
	}
	if b.await {
		if bs.FirstAfterReconfig {
			b.await = false
			return
		}
		b.waited++
		if b.waited < 25 {
			return
		}
		b.await = false
	} else if bs.FirstAfterReconfig {
		return
	}
	b.procAcc = append(b.procAcc, bs.ProcessingTime.Seconds())
	b.totalAcc = append(b.totalAcc, bs.ProcessingTime.Seconds()+bs.SchedulingDelay.Seconds())
	if q := b.eng.QueueLen(); q > boDrainThreshold {
		projected := stats.Mean(b.totalAcc) + float64(q)*stats.Mean(b.procAcc)
		b.record(projected)
		b.draining = true
		b.applied++
		bb := b.eng.ConfigBounds()
		_ = b.eng.Reconfigure(engine.Config{BatchInterval: bb.MaxInterval, Executors: bb.MaxExecutors})
		return
	}
	if len(b.totalAcc) < boMeasureBatches {
		return
	}
	b.record(stats.Mean(b.totalAcc))
	b.next()
}

// record scores the just-measured configuration with Eq. 3.
func (b *BayesOpt) record(measured float64) {
	interval := b.current.BatchInterval.Seconds()
	y := interval + boRho*math.Max(0, measured-interval)
	b.evals = append(b.evals, Evaluation{Config: b.current, Y: y, At: b.eng.Clock().Now()})
}

// next chooses the following configuration: remaining design points first,
// then the EI maximiser; stops at the budget or when EI dries up.
func (b *BayesOpt) next() {
	if len(b.evals) >= b.opts.MaxEvaluations {
		b.finish()
		return
	}
	if len(b.evals) < b.opts.InitialDesign {
		_ = b.evaluate(b.designPoint(len(b.evals)))
		return
	}
	cfg, ei, err := b.propose()
	if err != nil || ei < boEIStop {
		b.finish()
		return
	}
	_ = b.evaluate(cfg)
}

// propose fits the GP and maximises EI over a grid.
func (b *BayesOpt) propose() (engine.Config, float64, error) {
	xs := make([][]float64, len(b.evals))
	ys := make([]float64, len(b.evals))
	best := math.Inf(1)
	var o stats.Online
	for _, e := range b.evals {
		o.Add(e.Y)
	}
	signal := o.Var()
	if signal < 1 {
		signal = 1
	}
	for i, e := range b.evals {
		xs[i] = b.toNorm(e.Config)
		ys[i] = e.Y
		if e.Y < best {
			best = e.Y
		}
	}
	// Normalised length scale: boLengthScale is expressed in the paper's
	// [1,20] scale; our norm space is [0,1], so divide by 19.
	gp, err := NewGP(boLengthScale/19, signal, math.Max(0.05*signal, 0.25))
	if err != nil {
		return engine.Config{}, 0, err
	}
	if err := gp.Fit(xs, ys); err != nil {
		return engine.Config{}, 0, err
	}
	var bestCfg engine.Config
	bestEI := -1.0
	const steps = boGridSteps
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := []float64{float64(i) / float64(steps), float64(j) / float64(steps)}
			ei := gp.ExpectedImprovement(x, best)
			if ei > bestEI {
				bestEI = ei
				bestCfg = b.fromNorm(x)
			}
		}
	}
	return bestCfg, bestEI, nil
}

// finish applies the best observed configuration and stops searching.
func (b *BayesOpt) finish() {
	b.done = true
	b.doneAt = b.eng.Clock().Now()
	if best, ok := b.Best(); ok {
		b.applied++
		_ = b.eng.Reconfigure(best.Config)
	}
}

// Best returns the lowest-objective evaluation so far.
func (b *BayesOpt) Best() (Evaluation, bool) {
	if len(b.evals) == 0 {
		return Evaluation{}, false
	}
	best := b.evals[0]
	for _, e := range b.evals[1:] {
		if e.Y < best.Y {
			best = e
		}
	}
	return best, true
}

// Evaluations returns all measured configurations in order.
func (b *BayesOpt) Evaluations() []Evaluation { return b.evals }

// Done reports whether the search has stopped.
func (b *BayesOpt) Done() bool { return b.done }

// DoneAt returns the virtual time the search stopped (Fig 8 "search time").
func (b *BayesOpt) DoneAt() sim.Time { return b.doneAt }

// ConfigureSteps returns the configuration changes requested (Fig 8).
func (b *BayesOpt) ConfigureSteps() int { return b.applied }
