package core

import (
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/spsa"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

// scenario builds engine+controller on one clock and starts both.
func scenario(t *testing.T, eo func(*engine.Options), co func(*Options)) (*sim.Clock, *engine.Engine, *Controller) {
	t.Helper()
	clock := sim.NewClock()
	eopts := engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 150000},
		Seed:     rng.New(11),
		Initial:  engine.Config{BatchInterval: 20 * time.Second, Executors: 10},
	}
	if eo != nil {
		eo(&eopts)
	}
	eng, err := engine.New(clock, eopts)
	if err != nil {
		t.Fatal(err)
	}
	copts := Options{Seed: rng.New(12)}
	if co != nil {
		co(&copts)
	}
	ctl, err := New(eng, copts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Attach(); err != nil {
		t.Fatal(err)
	}
	return clock, eng, ctl
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil engine accepted")
	}
	clock := sim.NewClock()
	eng, err := engine.New(clock, engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, Options{Initial: engine.Config{BatchInterval: time.Hour, Executors: 1}}); err == nil {
		t.Error("out-of-bounds initial accepted")
	}
	if _, err := New(eng, Options{MeasureBatches: 5, MeasureBatchesMax: 2}); err == nil {
		t.Error("window max below min accepted")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	_, _, ctl := scenario(t, nil, nil)
	if ctl.measureN != 3 {
		t.Errorf("MeasureWindow=%d, want 3", ctl.measureN)
	}
	if ctl.rho != 1 {
		t.Errorf("Rho=%v, want 1", ctl.rho)
	}
	if ctl.Phase() != PhaseMeasurePlus {
		t.Errorf("Phase=%v, want measure+", ctl.Phase())
	}
	// θ_initial defaults to the middle of the bounds: (20.5s, 10).
	est := ctl.Estimate()
	if est.Executors != 10 {
		t.Errorf("initial executors %d, want 10", est.Executors)
	}
	if est.BatchInterval < 20*time.Second || est.BatchInterval > 21*time.Second {
		t.Errorf("initial interval %v, want ≈20.5s", est.BatchInterval)
	}
}

func TestAttachTwiceFails(t *testing.T) {
	_, _, ctl := scenario(t, nil, nil)
	if err := ctl.Attach(); err == nil {
		t.Fatal("second Attach accepted")
	}
}

func TestIterationsProgress(t *testing.T) {
	clock, _, ctl := scenario(t, nil, nil)
	clock.RunUntil(sim.Time(sec(3600)))
	its := ctl.Iterations()
	if len(its) < 5 {
		t.Fatalf("only %d iterations in 1h", len(its))
	}
	prevAt := sim.Time(-1)
	for i, it := range its {
		// K restarts after §5.5 resets and pause-resume events, but must
		// always be positive and timestamps must be ordered.
		if it.K < 1 {
			t.Fatalf("iteration %d has K=%d", i, it.K)
		}
		if it.At <= prevAt {
			t.Fatalf("iteration %d timestamp %v not after %v", i, it.At, prevAt)
		}
		prevAt = it.At
		if it.YPlus <= 0 || it.YMinus <= 0 {
			t.Fatalf("non-positive objective at iteration %d: %+v", i, it)
		}
		b := engine.DefaultBounds()
		if !b.Contains(it.Estimate) || !b.Contains(it.ThetaPlus) || !b.Contains(it.ThetaMinus) {
			t.Fatalf("iteration %d produced out-of-bounds configs: %+v", i, it)
		}
	}
}

func TestRhoRampsToCap(t *testing.T) {
	clock, _, ctl := scenario(t, nil, nil)
	clock.RunUntil(sim.Time(sec(7200)))
	// ρ ramps by +0.1 per iteration from 1 and caps at 2; it drops back
	// to 1 only on reset/resume events. Every recorded value must stay in
	// [1.1, 2], and a run with ≥10 uninterrupted early iterations must
	// reach the cap at some point.
	reachedCap := false
	for _, it := range ctl.Iterations() {
		if it.Rho < 1.05 || it.Rho > 2 {
			t.Fatalf("rho %v outside [1.1, 2]", it.Rho)
		}
		if it.Rho == 2 {
			reachedCap = true
		}
	}
	if len(ctl.Iterations()) >= 15 && !reachedCap {
		t.Fatalf("rho never reached the cap over %d iterations", len(ctl.Iterations()))
	}
}

func TestNoStopImprovesOverDefault(t *testing.T) {
	// Fig 7's core claim: tuned e2e delay beats the default configuration.
	meanTail := func(h []engine.BatchStats) float64 {
		var xs []float64
		for _, b := range h[len(h)*7/10:] {
			xs = append(xs, b.EndToEndDelay.Seconds())
		}
		return stats.Mean(xs)
	}
	// Default run: no controller.
	clockD := sim.NewClock()
	engD, err := engine.New(clockD, engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 150000},
		Seed:     rng.New(11),
		Initial:  engine.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	engD.Start()
	clockD.RunUntil(sim.Time(sec(7200)))
	defaultE2E := meanTail(engD.History())

	clock, eng, ctl := scenario(t, nil, nil)
	clock.RunUntil(sim.Time(sec(7200)))
	tunedE2E := meanTail(eng.History())

	if tunedE2E >= 0.7*defaultE2E {
		t.Fatalf("tuned e2e %.2fs not well below default %.2fs", tunedE2E, defaultE2E)
	}
	// The tuned interval must have shrunk well below the 20s start.
	if est := ctl.Estimate(); est.BatchInterval > 12*time.Second {
		t.Fatalf("estimate interval %v did not shrink", est.BatchInterval)
	}
}

func TestSystemStaysStableUnderTuning(t *testing.T) {
	// The constraint (Eq. 2) must hold in steady state: queue not growing.
	clock, eng, _ := scenario(t, nil, nil)
	clock.RunUntil(sim.Time(sec(7200)))
	if q := eng.QueueLen(); q > 3 {
		t.Fatalf("queue length %d after tuning, system unstable", q)
	}
	h := eng.History()
	tail := h[len(h)-10:]
	bad := 0
	for _, b := range tail {
		if b.SchedulingDelay > 2*b.Config.BatchInterval {
			bad++
		}
	}
	if bad > 2 {
		t.Fatalf("%d/10 tail batches had runaway scheduling delay", bad)
	}
}

func TestPauseRuleFiresAndGrowsWindow(t *testing.T) {
	// Relaxed pause threshold: with S=6s and N=4 the rule must fire on the
	// low-noise WordCount workload, and the paused monitor must grow the
	// measurement window additively up to the max.
	clock, _, ctl := scenario(t, nil, func(o *Options) {
		o.PauseWindow = 4
		o.PauseStd = 6
	})
	clock.RunUntil(sim.Time(sec(7200)))
	if ctl.Pauses() == 0 {
		t.Fatal("pause rule never fired")
	}
	if ctl.Phase() == PhasePaused && ctl.measureN <= 3 {
		t.Fatalf("measurement window %d did not grow while paused", ctl.measureN)
	}
	if ctl.measureN > 10 {
		t.Fatalf("measurement window %d exceeded max 10", ctl.measureN)
	}
}

func TestSurgeTriggersReset(t *testing.T) {
	clock, _, ctl := scenario(t, func(o *engine.Options) {
		o.Trace = ratetrace.Surge{
			Base: 150000, Peak: 400000,
			Start: sim.Time(sec(1800)), Duration: 1800 * time.Second,
		}
	}, nil)
	clock.RunUntil(sim.Time(sec(1700)))
	if ctl.Resets() != 0 {
		t.Fatalf("%d resets before surge", ctl.Resets())
	}
	clock.RunUntil(sim.Time(sec(2400)))
	if ctl.Resets() == 0 {
		t.Fatal("surge did not trigger a reset")
	}
	// Cooldown: the single 30s transition must not thrash.
	if ctl.Resets() > 3 {
		t.Fatalf("%d resets for one surge edge", ctl.Resets())
	}
}

func TestUniformBandDoesNotTriggerReset(t *testing.T) {
	// §5.5: small fluctuations are noise for SPSA, not reset triggers. The
	// paper's own experimental bands must therefore never reset.
	clock, _, ctl := scenario(t, func(o *engine.Options) {
		o.Trace = ratetrace.NewUniformBand(110000, 190000, 5*time.Second, rng.New(31))
	}, nil)
	clock.RunUntil(sim.Time(sec(3600)))
	if ctl.Resets() != 0 {
		t.Fatalf("band variation caused %d resets", ctl.Resets())
	}
}

func TestConfigureStepsAccounting(t *testing.T) {
	clock, _, ctl := scenario(t, nil, nil)
	clock.RunUntil(sim.Time(sec(3600)))
	its := len(ctl.Iterations())
	steps := ctl.ConfigureSteps()
	// Two probe applications per iteration, plus one per pause/drain
	// episode and the iteration in flight.
	max := 2*its + 2 + ctl.Pauses() + 2*ctl.Resets() + ctl.Drains()
	if steps < 2*its || steps > max {
		t.Fatalf("ConfigureSteps=%d for %d iterations (%d pauses, %d resets, %d drains)",
			steps, its, ctl.Pauses(), ctl.Resets(), ctl.Drains())
	}
}

func TestReconfigBatchesExcludedFromMeasurement(t *testing.T) {
	// With a 60s reconfiguration setup cost, including flagged batches
	// would inflate measured processing times toward 60s+. §5.4's
	// exclusion keeps MeanProc near the true processing time.
	clock, _, ctl := scenario(t, func(o *engine.Options) {
		o.ReconfigSetup = 60 * time.Second
	}, nil)
	clock.RunUntil(sim.Time(sec(5400)))
	its := ctl.Iterations()
	if len(its) == 0 {
		t.Fatal("no iterations")
	}
	contaminated := 0
	for _, it := range its {
		if it.MeanProc > 50*time.Second {
			contaminated++
		}
	}
	if contaminated > 0 {
		t.Fatalf("%d/%d iterations contaminated by setup-cost batches", contaminated, len(its))
	}
}

func TestEstimateAlwaysInBounds(t *testing.T) {
	clock, eng, ctl := scenario(t, func(o *engine.Options) {
		o.Trace = ratetrace.NewUniformBand(110000, 190000, 5*time.Second, rng.New(41))
	}, nil)
	b := eng.ConfigBounds()
	check := func() {
		if est := ctl.Estimate(); !b.Contains(est) {
			t.Fatalf("estimate %v out of bounds", est)
		}
	}
	for i := 0; i < 24; i++ {
		clock.RunUntil(sim.Time(sec(float64(i+1) * 150)))
		check()
	}
}

func TestCustomParamsRespected(t *testing.T) {
	_, _, ctl := scenario(t, nil, func(o *Options) {
		o.Params = spsa.Params{A: 5, Aa: 4, C: 1, Alpha: 0.7, Gamma: 0.12}
		o.MeasureBatches = 2
		o.MeasureBatchesMax = 6
	})
	if ctl.measureN != 2 {
		t.Fatalf("MeasureWindow=%d, want 2", ctl.measureN)
	}
}

func TestPhaseStringer(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseMeasurePlus:  "measure+",
		PhaseMeasureMinus: "measure-",
		PhasePaused:       "paused",
		Phase(9):          "phase(9)",
	} {
		if p.String() != want {
			t.Errorf("Phase(%d).String()=%q, want %q", int(p), p.String(), want)
		}
	}
}
