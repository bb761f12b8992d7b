// Package core implements NoStop — the paper's SPSA-based online
// configuration controller for micro-batch streaming systems (§4, §5).
//
// The controller attaches to a running engine as a batch listener and runs
// Algorithm 1 as an event-driven state machine:
//
//  1. Perturb the current estimate θ into θ⁺/θ⁻ (normalised space, §5.1).
//  2. Apply θ⁺, discard the first batch after the change (§5.4), average
//     processing time over a measurement window, and evaluate the penalised
//     objective G = interval + ρ·max(0, processing − interval) (Eq. 3).
//  3. Repeat for θ⁻, take an SPSA step, ramp ρ by +0.1 up to 2 (Alg. 1).
//  4. Pause when the last N iteration objectives have standard deviation
//     below S (§5.3.5); while paused, hold the estimate, grow the
//     measurement window additively (§5.4), and watch for instability.
//  5. Reset the gain sequences and restart from θ_initial when the input
//     rate shifts abruptly (§5.5's needResetCoefficient/resetCoefficient).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"nostop/internal/approx"
	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/spsa"
	"nostop/internal/stats"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// System is the surface the controller needs from the streaming system it
// tunes. *engine.Engine satisfies it directly (in-process mode); in service
// mode a network proxy satisfies it by RPC, so the identical SPSA state
// machine drives a local simulation and a remote engine process — the
// bridge ROADMAP item 5 calls for. Implementations must deliver listener
// callbacks and answer queries on the thread that owns Clock(); the
// controller performs no synchronisation of its own.
type System interface {
	// AddListener subscribes the controller to completed batches.
	AddListener(engine.Listener)
	// Clock is the virtual timeline measurements and budgets run on.
	Clock() *sim.Clock
	// Config returns the live configuration.
	Config() engine.Config
	// ConfigBounds returns the feasible configuration region.
	ConfigBounds() engine.Bounds
	// QueueLen returns the number of batches waiting (excluding in-flight).
	QueueLen() int
	// RecentRateMean returns the mean observed arrival rate (records/s).
	RecentRateMean() float64
	// RecentRateStd returns the arrival-rate standard deviation — §5.5's
	// reset signal.
	RecentRateStd() float64
	// Reconfigure requests a configuration change at the next boundary.
	Reconfigure(engine.Config) error
}

// Host is the surface every registered controller tunes through: System
// plus the runtime knobs Apply drives and their getters, the fault signal
// and the workload. *engine.Engine satisfies it, and so does a tenant's
// allocator gate. Service mode's proxy carries only System over its wire,
// so it hosts the SPSA controller alone.
type Host interface {
	System
	Actuator
	// IngestCap, TaskMaxFailures and SpeculativeMultiplier read the
	// runtime knobs back.
	IngestCap() float64
	TaskMaxFailures() int
	SpeculativeMultiplier() float64
	// FaultInEffect reports whether an injected fault is active now.
	FaultInEffect() bool
	// Workload is the app's cost model; gp and rl size their default space
	// from its nominal rate band.
	Workload() workload.Workload
}

// Phase is the controller's state-machine phase.
type Phase int

// Controller phases.
const (
	// PhaseMeasurePlus is collecting measurements at θ⁺.
	PhaseMeasurePlus Phase = iota
	// PhaseMeasureMinus is collecting measurements at θ⁻.
	PhaseMeasureMinus
	// PhasePaused holds the converged estimate and monitors the system.
	PhasePaused
	// PhaseDraining parks the system at the safe configuration until the
	// batch queue empties after a deeply-unstable probe.
	PhaseDraining
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseMeasurePlus:
		return "measure+"
	case PhaseMeasureMinus:
		return "measure-"
	case PhasePaused:
		return "paused"
	case PhaseDraining:
		return "draining"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// ObjectiveForm selects what the controller measures as G(θ) (§4.2.2).
type ObjectiveForm int

// Objective forms.
const (
	// ObjectiveE2E (default) measures the end-to-end delay itself plus
	// the Eq. 3 stability penalty:
	//
	//	G = interval/2 + totalDelay + ρ·max(0, totalDelay − interval)
	//
	// Eq. 1 — the paper's actual optimization goal — is the end-to-end
	// delay; Eq. 3 substitutes the batch interval as its proxy, which is
	// exact at the optimum (where processing time ≈ interval) but
	// constant across all stable configurations, leaving the executor
	// dimension without any gradient until the system destabilises. The
	// E2E form keeps Eq. 3's penalty and constraint behaviour while
	// giving SPSA a usable gradient in both dimensions (fewer executors
	// → longer processing → higher measured delay). The ablation
	// AblationObjective quantifies the difference.
	ObjectiveE2E ObjectiveForm = iota
	// ObjectiveEq3 is the paper's literal objective:
	//
	//	G = interval + ρ·max(0, totalDelay − interval)
	ObjectiveEq3
)

// Options tune the controller. Zero values take the paper's settings.
type Options struct {
	// Objective selects the measured objective form; the zero value is
	// ObjectiveE2E (see the type's documentation).
	Objective ObjectiveForm
	// Initial is θ_initial; zero means the middle of the bounds (§5.2 and
	// §6.2.1's scaled {10, 10}).
	Initial engine.Config
	// Params are the SPSA gain coefficients in normalised space; zero
	// means the paper's A=1, a=10, c=2, α=0.602, γ=0.101 (§6.2.1).
	Params spsa.Params
	// MeasureBatches is the initial number of (non-excluded) batches
	// averaged per probe measurement; 0 means 3 (§5.4).
	MeasureBatches int
	// MeasureBatchesMax caps the additive-increase measurement window
	// grown while paused; 0 means 10 (§5.4).
	MeasureBatchesMax int
	// PauseWindow is N, the number of consecutive iteration objectives
	// whose spread gates the pause rule; 0 means 10 (§6.2.1).
	PauseWindow int
	// PauseStd is S, the pause threshold in seconds. The paper sets S=1
	// for its testbed (§6.2.1); the simulated substrate's measurement
	// noise is larger, so 0 means a calibrated default of 2 — set 1
	// explicitly for the paper's exact value.
	PauseStd float64
	// RateStdThreshold is threshold_speed for §5.5's reset rule, in
	// records/second. 0 derives it lazily as 35% of the observed mean
	// rate, which clears the paper's uniform-band variation but trips on
	// surges. Negative disables the reset rule entirely (ablation).
	RateStdThreshold float64
	// IncludeReconfigBatches disables the §5.4 first-batch exclusion so
	// reconfiguration-inflated batches contaminate measurements
	// (ablation).
	IncludeReconfigBatches bool
	// RawScale disables the §5.1 min-max normalisation: each parameter
	// is optimized in its own physical range (interval in seconds
	// [1,40], executors [1,20]) instead of the shared [1,20] range
	// (ablation).
	RawScale bool
	// Rho0 and RhoMax bound the penalty ramp, which climbs by rhoStep per
	// iteration; zeros mean Algorithm 1's 1.0 and 2.0.
	Rho0, RhoMax float64
	// Seed drives the SPSA perturbation stream; nil means rng.New(2024).
	Seed *rng.Stream
	// TuneBlockInterval adds the receiver block interval as a third SPSA
	// dimension — the paper's §7 future work ("the SPSA algorithm is able
	// to optimize multiple parameters simultaneously without additional
	// overhead": still two measurements per iteration). Requires the
	// engine's bounds to set MinBlock/MaxBlock.
	TuneBlockInterval bool
	// AutoGains derives the gain numerators at attach time instead of
	// requiring hand-chosen constants — the paper's §7 future work on
	// determining gain sequences from user-level knowledge. The
	// controller first watches CalibrationBatches completed batches at
	// the initial configuration, sets c to the observed standard
	// deviation of the total delay (§5.6's rule) and a to half the
	// normalised range, then starts optimizing.
	AutoGains bool
	// CalibrationBatches is the AutoGains observation window; 0 means 8.
	CalibrationBatches int
	// MaxSearchTime is the impeded-progress budget in virtual time: if no
	// pause rule has fired this long after the last reset/resume, the
	// controller holds the best configuration seen anyway. 0 means 25
	// minutes; negative disables the time budget.
	MaxSearchTime time.Duration
	// MaxIterations is the impeded-progress budget: if the N-best rule
	// has not fired after this many iterations since the last
	// reset/resume, the controller holds the best configuration seen
	// anyway — §5.3.5's "impeded progress rules to guarantee optimization
	// halt". 0 means 25; negative disables the budget.
	MaxIterations int
	// Metrics, when non-nil, receives the controller's SPSA step metrics
	// (iterations, resets, pauses, ρ, gains, estimate — see
	// docs/METRICS.md). Instrumentation is passive and cannot perturb a
	// seeded run.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records perturbation/measurement windows and
	// state-machine transitions as Chrome trace_event spans.
	Tracer *tracing.Tracer
}

// Controller constants no caller varies.
const (
	// rhoStep is Algorithm 1's per-iteration penalty ramp.
	rhoStep = 0.1
	// normLo/normHi bound the shared normalised parameter range of §5.1
	// (§6.2.1's [1, 20]).
	normLo, normHi = 1.0, 20.0
	// resetCooldown suppresses repeated §5.5 resets while one surge
	// transition is still inside the rate window.
	resetCooldown = 30 * time.Second
	// pauseMargin inflates the interval of the configuration held during
	// a pause by this fraction, since the best-scored configuration sits
	// on the stability edge by construction.
	pauseMargin = 0.1
	// budgetHold is how long an impeded-progress pause holds its
	// configuration before re-opening the search (with the accumulated
	// N-best knowledge intact). Unlike an N-best pause — a genuine
	// convergence signal held until the system destabilises — a budget
	// pause only means "nothing better found yet", so the controller
	// re-checks periodically.
	budgetHold = 15 * time.Minute
	// drainThreshold is the batch-queue length that triggers emergency
	// stabilisation: the probe is scored immediately with a
	// queueing-projected delay and the system parks at the safe
	// configuration until the queue empties. The paper does not spell out
	// how its testbed recovers from a deeply-unstable probe; without this
	// guard a backlog makes both probe measurements reflect the shared
	// queue-drain time, the gradient degenerates to noise, and recovery
	// becomes a slow random walk (see DESIGN.md §5).
	drainThreshold = 10
	// drainDelay is the estimated queueing delay (queue length × recent
	// batch processing time) that also triggers emergency stabilisation;
	// it complements drainThreshold because the cost of a queued batch
	// scales with the batch interval — at a 26s interval even a 6-batch
	// queue already means minutes of scheduling delay.
	drainDelay = 75 * time.Second
)

// Iteration records one completed SPSA iteration for reports and Fig 6/8.
type Iteration struct {
	K          int
	At         sim.Time
	ThetaPlus  engine.Config
	ThetaMinus engine.Config
	YPlus      float64
	YMinus     float64
	Estimate   engine.Config
	Rho        float64
	// MeanProc and MeanE2E average the batches measured this iteration.
	MeanProc time.Duration
	MeanE2E  time.Duration
}

// Controller is the NoStop optimizer loop bound to one engine.
type Controller struct {
	eng  System
	opts Options

	intervalScale spsa.Scale
	execScale     spsa.Scale
	blockScale    spsa.Scale // valid only when TuneBlockInterval
	spsaSeed      *rng.Stream
	opt           *spsa.Optimizer
	initialNorm   []float64
	calibrating   bool
	calibAcc      []float64

	phase    Phase
	target   engine.Config // config currently being measured/held
	plusCfg  engine.Config
	minusCfg engine.Config
	rho      float64
	measureN int       // current measurement window
	procAcc  []float64 // processing times (reporting)
	totalAcc []float64 // processing + scheduling delay (objective input)
	e2eAcc   []float64
	// best holds the N lowest objectives seen since the last reset with
	// their configurations, ascending by objective — the §5.3.5 pause
	// rule's "N best configurations".
	best []scored
	// §5.4 exclusion state: after a real configuration change we wait for
	// the flagged first batch, discard it, then start collecting. The
	// waited counter bounds the wait when a deep backlog delays the
	// flagged batch indefinitely — system status is meaningful either way.
	awaitFlag bool
	waited    int

	// Failure-aware admission state: inFault latches while flagged batches
	// stream past, so the first clean batch after recovery can trigger a
	// re-calibration exactly once per fault episode.
	inFault        bool
	faultBatches   int
	recalibrations int

	sinceRestart int      // iterations since the last reset/resume (budget rule)
	restartAt    sim.Time // when the current search leg began (time budget)
	budgetPause  bool     // current pause is provisional (impeded progress)
	pausedAt     sim.Time // when the current pause began

	pendingDrain bool   // finishIteration should enter drain mode
	afterDrain   func() // continuation once the queue has emptied
	drains       int
	// Probe evaluation order is randomised per iteration: measuring θ⁺
	// first every time would hand θ⁻ a systematic advantage, because the
	// first probe is measured while the previous iteration's queue
	// residue is still draining.
	firstIsPlus    bool
	measuringFirst bool
	pendingFirst   float64
	order          *rng.Stream
	rateThresh     float64
	iterations     []Iteration
	lastReset      sim.Time
	everReset      bool
	resets         int
	pauses         int
	attached       bool
	totalApplied   int // configuration changes requested (Fig 8's "configure steps")

	obs *ctlObs // nil when observability is disabled
}

// New builds a controller for the engine (any System implementation —
// in-process *engine.Engine or a service-mode proxy). Call Attach to start
// optimizing.
func New(eng System, opts Options) (*Controller, error) {
	if eng == nil {
		return nil, errors.New("core: nil engine")
	}
	b := eng.ConfigBounds()
	if opts.MeasureBatches == 0 {
		opts.MeasureBatches = 3
	}
	if opts.MeasureBatchesMax == 0 {
		opts.MeasureBatchesMax = 10
	}
	if opts.MeasureBatchesMax < opts.MeasureBatches {
		return nil, fmt.Errorf("core: measurement window max %d below min %d",
			opts.MeasureBatchesMax, opts.MeasureBatches)
	}
	if opts.PauseWindow == 0 {
		opts.PauseWindow = 10
	}
	if approx.Unset(opts.PauseStd) {
		opts.PauseStd = 2
	}
	if approx.Unset(opts.Rho0) {
		opts.Rho0 = 1
	}
	if approx.Unset(opts.RhoMax) {
		opts.RhoMax = 2
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 25
	}
	if opts.MaxSearchTime == 0 {
		opts.MaxSearchTime = 25 * time.Minute
	}
	if opts.CalibrationBatches == 0 {
		opts.CalibrationBatches = 8
	}
	if opts.Params == (spsa.Params{}) {
		// §6.2.1: A=1, a=10, c=2 over the [1,20] normalised range. The
		// step clip at 4 normalised units (≈20% of the range) keeps one
		// noisy early gradient from flinging the system across the whole
		// feasible region (see spsa.Params.MaxStep).
		opts.Params = spsa.Params{A: 1, Aa: 10, C: 2, Alpha: 0.602, Gamma: 0.101, MaxStep: 4}
	}
	if opts.Initial == (engine.Config{}) {
		opts.Initial = engine.Config{
			BatchInterval: (b.MinInterval + b.MaxInterval) / 2,
			Executors:     (b.MinExecutors + b.MaxExecutors) / 2,
		}
	}
	if !b.Contains(opts.Initial) {
		return nil, fmt.Errorf("core: initial %v outside engine bounds", opts.Initial)
	}

	intervalNormLo, intervalNormHi := normLo, normHi
	execNormLo, execNormHi := normLo, normHi
	if opts.RawScale {
		intervalNormLo, intervalNormHi = b.MinInterval.Seconds(), b.MaxInterval.Seconds()
		execNormLo, execNormHi = float64(b.MinExecutors), float64(b.MaxExecutors)
	}
	is, err := spsa.NewScale(b.MinInterval.Seconds(), b.MaxInterval.Seconds(), intervalNormLo, intervalNormHi)
	if err != nil {
		return nil, err
	}
	es, err := spsa.NewScale(float64(b.MinExecutors), float64(b.MaxExecutors), execNormLo, execNormHi)
	if err != nil {
		return nil, err
	}
	var blockScale spsa.Scale
	if opts.TuneBlockInterval {
		if b.MinBlock <= 0 || b.MaxBlock <= b.MinBlock {
			return nil, fmt.Errorf("core: TuneBlockInterval requires engine block bounds, got [%v, %v]", b.MinBlock, b.MaxBlock)
		}
		blockScale, err = spsa.NewScale(b.MinBlock.Seconds(), b.MaxBlock.Seconds(), normLo, normHi)
		if err != nil {
			return nil, err
		}
		if opts.Initial.BlockInterval == 0 {
			opts.Initial.BlockInterval = (b.MinBlock + b.MaxBlock) / 2
		}
	}
	c := &Controller{
		eng:           eng,
		opts:          opts,
		intervalScale: is,
		execScale:     es,
		blockScale:    blockScale,
		rho:           opts.Rho0,
		measureN:      opts.MeasureBatches,
		rateThresh:    opts.RateStdThreshold,
	}
	c.initialNorm = c.toNorm(opts.Initial)
	seed := opts.Seed
	if seed == nil {
		seed = rng.New(2024)
	}
	c.spsaSeed = seed.Split("spsa")
	if !opts.AutoGains {
		if err := c.buildOptimizer(opts.Params); err != nil {
			return nil, err
		}
	}
	c.order = seed.Split("probe-order")
	c.obs = newCtlObs(opts.Metrics, opts.Tracer)
	if c.obs != nil {
		c.obs.rho.Set(c.rho)
		c.obs.measureWindow.Set(float64(c.measureN))
	}
	return c, nil
}

// buildOptimizer constructs the SPSA state over the (2- or 3-dimensional)
// normalised box.
func (c *Controller) buildOptimizer(params spsa.Params) error {
	lo := []float64{c.intervalScale.OutLo, c.execScale.OutLo}
	hi := []float64{c.intervalScale.OutHi, c.execScale.OutHi}
	if c.opts.TuneBlockInterval {
		lo = append(lo, c.blockScale.OutLo)
		hi = append(hi, c.blockScale.OutHi)
	}
	opt, err := spsa.New(c.initialNorm, lo, hi, params, c.spsaSeed)
	if err != nil {
		return err
	}
	c.opt = opt
	return nil
}

// toNorm maps a physical config into normalised optimizer space.
func (c *Controller) toNorm(cfg engine.Config) []float64 {
	out := []float64{
		c.intervalScale.ToNorm(cfg.BatchInterval.Seconds()),
		c.execScale.ToNorm(float64(cfg.Executors)),
	}
	if c.opts.TuneBlockInterval {
		block := cfg.BlockInterval
		if block == 0 {
			block = c.opts.Initial.BlockInterval
		}
		out = append(out, c.blockScale.ToNorm(block.Seconds()))
	}
	return out
}

// fromNorm maps a normalised point to a physical config, rounding executors
// and clamping both into the engine bounds.
func (c *Controller) fromNorm(x []float64) engine.Config {
	interval := time.Duration(c.intervalScale.FromNorm(x[0]) * float64(time.Second))
	// Round the interval to 100ms: Spark Streaming intervals are
	// millisecond-granular, but sub-100ms jitter only adds noise.
	interval = interval.Round(100 * time.Millisecond)
	execs := int(math.Round(c.execScale.FromNorm(x[1])))
	cfg := engine.Config{BatchInterval: interval, Executors: execs}
	if c.opts.TuneBlockInterval {
		cfg.BlockInterval = time.Duration(c.blockScale.FromNorm(x[2]) * float64(time.Second)).Round(10 * time.Millisecond)
	}
	return c.eng.ConfigBounds().Clamp(cfg)
}

// Attach registers the controller with the engine and applies the first
// probe configuration. The engine must be started by the caller.
func (c *Controller) Attach() error {
	if c.attached {
		return errors.New("core: already attached")
	}
	c.attached = true
	c.eng.AddListener(engine.ListenerFunc(c.onBatch))
	if c.opts.AutoGains {
		c.calibrating = true
		return nil
	}
	return c.beginIteration()
}

// calibrate accumulates total delays at the initial configuration and, once
// the window fills, derives the §5.6 gains: c from the measured noise, a
// from half the normalised span, A = 1.
func (c *Controller) calibrate(bs engine.BatchStats) {
	c.calibAcc = append(c.calibAcc, bs.ProcessingTime.Seconds()+bs.SchedulingDelay.Seconds())
	if len(c.calibAcc) < c.opts.CalibrationBatches {
		return
	}
	span := normHi - normLo
	noise := stats.Std(c.calibAcc)
	params := spsa.DefaultParams(span+1, noise)
	params.MaxStep = 4
	if err := c.buildOptimizer(params); err != nil {
		panic(fmt.Sprintf("core: calibration: %v", err)) // scales validated at construction
	}
	c.calibrating = false
	c.restartAt = c.eng.Clock().Now()
	_ = c.beginIteration()
}

// beginIteration draws a perturbation and applies θ⁺.
func (c *Controller) beginIteration() error {
	plus, minus, err := c.opt.Perturb()
	if err != nil {
		return err
	}
	c.plusCfg = c.fromNorm(plus)
	c.minusCfg = c.fromNorm(minus)
	c.onPerturb()
	c.firstIsPlus = c.order.Float64() < 0.5
	c.measuringFirst = true
	phase, cfg := c.firstProbe()
	c.startMeasure(phase, cfg)
	return c.apply(cfg)
}

// firstProbe and secondProbe return the phase/config of this iteration's
// randomised evaluation order.
func (c *Controller) firstProbe() (Phase, engine.Config) {
	if c.firstIsPlus {
		return PhaseMeasurePlus, c.plusCfg
	}
	return PhaseMeasureMinus, c.minusCfg
}

func (c *Controller) secondProbe() (Phase, engine.Config) {
	if c.firstIsPlus {
		return PhaseMeasureMinus, c.minusCfg
	}
	return PhaseMeasurePlus, c.plusCfg
}

// apply requests a configuration change on the engine and arms the §5.4
// first-batch exclusion when the configuration actually changes.
func (c *Controller) apply(cfg engine.Config) error {
	c.totalApplied++
	c.onApply()
	c.awaitFlag = cfg != c.eng.Config()
	c.waited = 0
	return c.eng.Reconfigure(cfg)
}

// startMeasure resets the accumulators for a probe phase.
func (c *Controller) startMeasure(phase Phase, target engine.Config) {
	c.phase = phase
	c.target = target
	c.procAcc = c.procAcc[:0]
	c.totalAcc = c.totalAcc[:0]
	c.e2eAcc = c.e2eAcc[:0]
	c.onMeasureStart()
}

// maxFlagWait bounds how many completed batches we skip while waiting for
// the flagged first-after-reconfig batch. Under a deep backlog the flagged
// batch can be queued behind many stale batches; after this many
// completions the stale batches' total delay is itself the honest system
// status, so we start measuring.
const maxFlagWait = 8

// resumeWarmK is the gain-sequence iteration a pause-resume warm restart
// begins at: early enough for real steps, late enough to skip the wildest
// first-iteration gains.
const resumeWarmK = 4

// admit applies the §5.4 exclusion rules and reports whether a completed
// batch should enter the current measurement.
func (c *Controller) admit(bs engine.BatchStats) bool {
	if c.opts.IncludeReconfigBatches {
		return true // §5.4 exclusion disabled (ablation)
	}
	if c.awaitFlag {
		if bs.FirstAfterReconfig {
			c.awaitFlag = false // discard the flagged batch itself
			return false
		}
		c.waited++
		if c.waited < maxFlagWait {
			return false
		}
		c.awaitFlag = false // §5.4 wait abandoned; measure system as-is
		return true
	}
	return !bs.FirstAfterReconfig
}

// advance consumes a finished probe measurement and moves the state machine.
func (c *Controller) advance(y float64) {
	if c.measuringFirst {
		c.pendingFirst = y
		c.measuringFirst = false
		phase, cfg := c.secondProbe()
		c.startMeasure(phase, cfg)
		_ = c.apply(cfg)
		return
	}
	yPlus, yMinus := c.pendingFirst, y
	if !c.firstIsPlus {
		yPlus, yMinus = y, c.pendingFirst
	}
	c.finishIteration(yPlus, yMinus)
}

// onBatch is the engine listener driving the state machine.
func (c *Controller) onBatch(bs engine.BatchStats) {
	// Failure-aware admission: batches cut or completed under an injected
	// fault never enter measurements — a fault-inflated gradient would
	// steer SPSA toward configurations tuned for a transient failure
	// (§5.4's exclusion logic extended to fault windows). The §5.5
	// rate-change check is skipped for them too, so an ingest-spike fault
	// cannot masquerade as a genuine workload shift and trigger a full
	// reset.
	if bs.FaultActive {
		c.inFault = true
		c.faultBatches++
		c.onFaultExcluded()
		return
	}
	if c.inFault {
		// First clean batch after recovery: re-calibrate. Whatever was
		// accumulated straddles the fault window — drop it so the current
		// probe (or pause-monitor check) is judged on post-recovery
		// batches only.
		c.inFault = false
		c.recalibrations++
		c.onRecalibrate()
		c.procAcc = c.procAcc[:0]
		c.totalAcc = c.totalAcc[:0]
		c.e2eAcc = c.e2eAcc[:0]
		c.calibAcc = c.calibAcc[:0]
	}
	if c.calibrating {
		// No optimizer exists yet; rate-change resets are meaningless
		// until the first gains are derived.
		c.calibrate(bs)
		return
	}
	// §5.5: abrupt input-rate changes reset the optimization, whatever
	// phase we are in.
	if c.rateChanged() {
		c.reset()
		return
	}
	switch c.phase {
	case PhaseMeasurePlus, PhaseMeasureMinus:
		c.collect(bs)
	case PhasePaused:
		c.monitor(bs)
	case PhaseDraining:
		c.drain(bs)
	}
}

// enterDrain parks the system at a safe configuration — a mid-range
// interval with the full executor pool, slowing batch arrival while
// maximising processing — and defers cont until the backlog has cleared.
func (c *Controller) enterDrain(cont func()) {
	c.drains++
	c.onDrainEnter()
	c.phase = PhaseDraining
	c.afterDrain = cont
	b := c.eng.ConfigBounds()
	_ = c.apply(engine.Config{
		BatchInterval: (b.MinInterval + b.MaxInterval) / 2,
		Executors:     b.MaxExecutors,
	})
}

// overloaded reports whether the queue state warrants emergency
// stabilisation: either the raw count threshold, or the projected queueing
// delay (count × this batch's processing time) crossing drainDelay.
func (c *Controller) overloaded(q int, bs engine.BatchStats) bool {
	return q > drainThreshold || q >= 3 && time.Duration(q)*bs.ProcessingTime > drainDelay
}

// drain waits for the backlog to clear (at most the in-flight batch left),
// then resumes the deferred action.
func (c *Controller) drain(bs engine.BatchStats) {
	if c.eng.QueueLen() > 1 {
		return
	}
	cont := c.afterDrain
	c.afterDrain = nil
	c.onDrainExit()
	cont()
}

// rateChanged implements needResetCoefficient() (§5.5): the std of recent
// input rates exceeds threshold_speed.
func (c *Controller) rateChanged() bool {
	if c.opts.RateStdThreshold < 0 {
		return false // reset rule disabled (ablation)
	}
	if c.everReset && c.eng.Clock().Now()-c.lastReset < sim.Time(resetCooldown) {
		return false // one surge transition = one reset
	}
	if approx.Unset(c.rateThresh) {
		mean := c.eng.RecentRateMean()
		if mean <= 0 {
			return false
		}
		c.rateThresh = 0.35 * mean
	}
	return c.eng.RecentRateStd() > c.rateThresh
}

// reset implements resetCoefficient() (Table 1): k = 0, x = θ_initial,
// ρ = ρ₀, fresh measurement window, and a new iteration begins immediately.
func (c *Controller) reset() {
	c.resets++
	c.onReset()
	c.everReset = true
	c.lastReset = c.eng.Clock().Now()
	if err := c.opt.Reset(c.initialNorm); err != nil {
		panic(fmt.Sprintf("core: reset: %v", err)) // dimensions fixed at construction
	}
	c.rho = c.opts.Rho0
	c.measureN = c.opts.MeasureBatches
	c.best = c.best[:0]
	c.sinceRestart = 0
	c.restartAt = c.eng.Clock().Now()
	// Re-derive the threshold from post-change traffic on the next check.
	if approx.Unset(c.opts.RateStdThreshold) {
		c.rateThresh = 0
	}
	_ = c.beginIteration()
}

// collect accumulates probe measurements. Mirroring Algorithm 2's
// getSystemStatus polling, every completed batch after the §5.4 exclusion
// counts, whatever configuration it was cut under: when the system is
// backlogged, the stale batches' ballooning scheduling delay IS the status
// that must be penalised, and waiting for probe-config batches only would
// stall the controller behind the backlog.
func (c *Controller) collect(bs engine.BatchStats) {
	if q := c.eng.QueueLen(); c.overloaded(q, bs) {
		// Emergency, checked before the §5.4 exclusion so a backlog is
		// never waited out: the probe destabilised the system. Score it
		// now with the queueing projection of the delay already accrued —
		// each queued batch will wait roughly one more processing time —
		// and stabilise before touching the system again.
		total := bs.ProcessingTime.Seconds() + bs.SchedulingDelay.Seconds()
		projected := total + float64(q)*bs.ProcessingTime.Seconds()
		y := c.objective(c.target, projected)
		c.onMeasureDone(y, true)
		if c.measuringFirst {
			c.pendingFirst = y
			c.measuringFirst = false
			c.enterDrain(func() {
				phase, cfg := c.secondProbe()
				c.startMeasure(phase, cfg)
				_ = c.apply(cfg)
			})
			return
		}
		yPlus, yMinus := c.pendingFirst, y
		if !c.firstIsPlus {
			yPlus, yMinus = y, c.pendingFirst
		}
		c.pendingDrain = true
		c.finishIteration(yPlus, yMinus)
		return
	}
	if !c.admit(bs) {
		return
	}
	c.procAcc = append(c.procAcc, bs.ProcessingTime.Seconds())
	c.totalAcc = append(c.totalAcc, bs.ProcessingTime.Seconds()+bs.SchedulingDelay.Seconds())
	c.e2eAcc = append(c.e2eAcc, bs.EndToEndDelay.Seconds())
	if len(c.totalAcc) < c.measureN {
		return
	}
	y := c.objective(c.target, stats.Mean(c.totalAcc))
	c.onMeasureDone(y, false)
	c.advance(y)
}

// objective evaluates Eq. 3. The measured quantity compared against the
// interval is the batch *total* delay (processing + scheduling) as reported
// by the Spark listener: in a stable system scheduling delay is zero and
// this equals the paper's batch processing time, while in an unstable
// system the growing queue makes p explode, which is what steers SPSA back
// inside the feasible region (a per-batch processing time alone would let
// deeply-unstable tiny intervals score *better* than stable ones, since
// ρ ≤ 2 caps the penalty).
func (c *Controller) objective(cfg engine.Config, measuredSecs float64) float64 {
	interval := cfg.BatchInterval.Seconds()
	penalty := c.rho * math.Max(0, measuredSecs-interval)
	if c.opts.Objective == ObjectiveEq3 {
		return interval + penalty
	}
	return interval/2 + measuredSecs + penalty
}

// finishIteration applies the SPSA update, ramps ρ, records the iteration,
// and either pauses or starts the next one.
func (c *Controller) finishIteration(yPlus, yMinus float64) {
	meanProc := stats.Mean(c.procAcc)
	meanE2E := stats.Mean(c.e2eAcc)
	theta, err := c.opt.Update(yPlus, yMinus)
	if err != nil {
		panic(fmt.Sprintf("core: update without perturb: %v", err)) // state machine invariant
	}
	c.rho = math.Min(c.rho+rhoStep, c.opts.RhoMax)
	est := c.fromNorm(theta)
	it := Iteration{
		K:          c.opt.K(),
		At:         c.eng.Clock().Now(),
		ThetaPlus:  c.plusCfg,
		ThetaMinus: c.minusCfg,
		YPlus:      yPlus,
		YMinus:     yMinus,
		Estimate:   est,
		Rho:        c.rho,
		MeanProc:   time.Duration(meanProc * float64(time.Second)),
		MeanE2E:    time.Duration(meanE2E * float64(time.Second)),
	}
	c.iterations = append(c.iterations, it)
	c.onIteration(it)
	c.noteScore(yPlus, c.plusCfg)
	c.noteScore(yMinus, c.minusCfg)

	if c.pendingDrain {
		c.pendingDrain = false
		c.enterDrain(func() { _ = c.beginIteration() })
		return
	}

	// §5.3.5 pause rules: hold the best configuration when the N best
	// objectives have pinned down the optimum region, or when the
	// impeded-progress budget guarantees a halt anyway.
	c.sinceRestart++
	if cfg, permanent, ok := c.pauseReady(); ok {
		c.pauses++
		c.phase = PhasePaused
		c.budgetPause = !permanent
		c.pausedAt = c.eng.Clock().Now()
		// Hold with an interval margin: the best-scored probe sits on
		// the razor edge of the stability constraint by construction
		// (lowest stable interval wins Eq. 3), and §4.2.4 argues θ* is an
		// "acceptable area", not a point. The margin adapts to the input
		// band: the stability frontier scales with the arrival rate, so
		// a configuration measured during a low-rate dwell needs
		// headroom proportional to the band's spread to survive its top
		// (for a uniform band, max/mean − 1 = √3·std/mean).
		margin := pauseMargin
		if mean := c.eng.RecentRateMean(); mean > 0 {
			if adaptive := 1.8 * c.eng.RecentRateStd() / mean; adaptive > margin {
				margin = adaptive
			}
		}
		if margin > 0.5 {
			margin = 0.5
		}
		cfg.BatchInterval = time.Duration(float64(cfg.BatchInterval) * (1 + margin)).Round(100 * time.Millisecond)
		cfg = c.eng.ConfigBounds().Clamp(cfg)
		c.onPause(cfg, permanent)
		c.target = cfg
		c.procAcc = c.procAcc[:0]
		c.totalAcc = c.totalAcc[:0]
		c.measureN = c.opts.MeasureBatches
		_ = c.apply(cfg)
		return
	}
	_ = c.beginIteration()
}

// scored is one measured configuration for the pause rule.
type scored struct {
	y   float64
	cfg engine.Config
}

// noteScore folds a probe measurement into the N-best list.
func (c *Controller) noteScore(y float64, cfg engine.Config) {
	i := 0
	for i < len(c.best) && c.best[i].y <= y {
		i++
	}
	if i == c.opts.PauseWindow {
		return // worse than all N best
	}
	c.best = append(c.best, scored{})
	copy(c.best[i+1:], c.best[i:])
	c.best[i] = scored{y: y, cfg: cfg}
	if len(c.best) > c.opts.PauseWindow {
		c.best = c.best[:c.opts.PauseWindow]
	}
}

// strikeFalsified removes N-best entries dominated by a configuration that
// just proved unstable: an entry with an interval no longer and executors
// no more plentiful would fail at least as badly.
func (c *Controller) strikeFalsified(failed engine.Config) {
	kept := c.best[:0]
	for _, s := range c.best {
		dominated := s.cfg.BatchInterval <= failed.BatchInterval && s.cfg.Executors <= failed.Executors
		if !dominated {
			kept = append(kept, s)
		}
	}
	c.best = kept
}

// pauseReady evaluates the pause rules. permanent reports whether the
// N-best convergence rule fired (hold until instability) as opposed to an
// impeded-progress budget (hold provisionally, then re-search).
func (c *Controller) pauseReady() (cfg engine.Config, permanent, ok bool) {
	if len(c.best) == 0 {
		return engine.Config{}, false, false
	}
	if c.opts.MaxIterations > 0 && c.sinceRestart >= c.opts.MaxIterations {
		return c.best[0].cfg, false, true // impeded-progress halt (§5.3.5)
	}
	if c.opts.MaxSearchTime > 0 && c.eng.Clock().Now()-c.restartAt > sim.Time(c.opts.MaxSearchTime) {
		return c.best[0].cfg, false, true // impeded-progress halt, time form
	}
	// §6.2.1 frames N as "consecutive optimization rounds": demand both
	// N completed iterations this leg and N recorded scores, otherwise
	// the very first probes (clustered around θ_initial) can fake
	// convergence.
	if c.sinceRestart < c.opts.PauseWindow || len(c.best) < c.opts.PauseWindow {
		return engine.Config{}, false, false
	}
	ys := make([]float64, len(c.best))
	for i, s := range c.best {
		ys[i] = s.y
	}
	if stats.Std(ys) >= c.opts.PauseStd {
		return engine.Config{}, false, false
	}
	return c.best[0].cfg, true, true
}

// monitor implements the paused state: hold the estimate, grow the
// measurement window additively while the system stays optimal (§5.4), and
// resume optimization if the constraint is violated.
func (c *Controller) monitor(bs engine.BatchStats) {
	if c.budgetPause && c.eng.Clock().Now()-c.pausedAt > sim.Time(budgetHold) {
		// A provisional hold expires: re-open the search from the held
		// configuration with warm gains. The N-best list is knowledge,
		// not hypothesis — it stays.
		c.budgetPause = false
		c.sinceRestart = 0
		c.restartAt = c.eng.Clock().Now()
		c.measureN = c.opts.MeasureBatches
		c.onResume("budget-hold-expired")
		if err := c.opt.ResetAt(c.toNorm(c.target), resumeWarmK); err != nil {
			panic(fmt.Sprintf("core: hold-expiry reset: %v", err))
		}
		_ = c.beginIteration()
		return
	}
	if q := c.eng.QueueLen(); c.overloaded(q, bs) {
		// The held configuration collapsed (e.g. the arrival band moved
		// up): stabilise, then re-optimize from scratch scores.
		c.best = c.best[:0]
		c.measureN = c.opts.MeasureBatches
		c.enterDrain(func() { _ = c.beginIteration() })
		return
	}
	if !c.admit(bs) {
		return
	}
	c.totalAcc = append(c.totalAcc, bs.ProcessingTime.Seconds()+bs.SchedulingDelay.Seconds())
	if len(c.totalAcc) > c.measureN {
		c.totalAcc = c.totalAcc[1:]
	}
	if len(c.totalAcc) < c.measureN {
		return
	}
	meanTotal := stats.Mean(c.totalAcc)
	if meanTotal > c.target.BatchInterval.Seconds() {
		// The system slid into the unstable regime: the held
		// configuration is falsified, along with every recorded
		// configuration that commits weakly fewer resources (shorter
		// interval with no more executors cannot be more stable). The
		// rest of the N-best list remains valid — traffic conditions,
		// unlike a §5.5 rate change, did not shift wholesale — so a
		// quick re-pause onto the next-best candidate stays possible.
		// ρ stays ramped: stability pressure is exactly what the
		// resumed search needs.
		c.strikeFalsified(c.target)
		c.sinceRestart = 0
		c.restartAt = c.eng.Clock().Now()
		c.measureN = c.opts.MeasureBatches
		c.onResume("held-config-unstable")
		if err := c.opt.ResetAt(c.toNorm(c.target), resumeWarmK); err != nil {
			panic(fmt.Sprintf("core: resume reset: %v", err))
		}
		_ = c.beginIteration()
		return
	}
	// Still optimal: relax the window by one batch, bounded (§5.4), which
	// damps pointless re-optimization on transient wobbles.
	if c.measureN < c.opts.MeasureBatchesMax {
		c.measureN++
	}
}

// Phase returns the current state-machine phase.
func (c *Controller) Phase() Phase { return c.phase }

// Iterations returns all completed SPSA iterations.
func (c *Controller) Iterations() []Iteration { return c.iterations }

// Estimate returns the current physical-space estimate θ̂.
func (c *Controller) Estimate() engine.Config { return c.fromNorm(c.opt.Theta()) }

// Resets returns how many §5.5 restarts occurred.
func (c *Controller) Resets() int { return c.resets }

// Pauses returns how many times the pause rule fired.
func (c *Controller) Pauses() int { return c.pauses }

// ConfigureSteps returns the total number of configuration changes the
// controller requested — Fig 8's cost metric.
func (c *Controller) ConfigureSteps() int { return c.totalApplied }

// Drains returns how many emergency queue-drain episodes occurred.
func (c *Controller) Drains() int { return c.drains }

// FaultBatches returns how many completed batches were excluded from
// measurement because they overlapped an injected fault window.
func (c *Controller) FaultBatches() int { return c.faultBatches }

// Recalibrations returns how many post-recovery re-calibrations occurred
// (one per fault episode: the first clean batch resets the accumulators).
func (c *Controller) Recalibrations() int { return c.recalibrations }
