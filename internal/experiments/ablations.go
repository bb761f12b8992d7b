package experiments

import (
	"fmt"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/fleet"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/spsa"
	"nostop/internal/stats"
)

// ablationRun runs NoStop with a controller-option mutation, averaged over
// cfg.Repetitions seeds, and returns the mean steady-state e2e, iterations,
// and drains — the common ablation scorecard. The WordCount workload is
// used throughout: its low noise makes design effects visible rather than
// drowned, and repetition averaging keeps single-seed luck from inverting
// conclusions.
func ablationRun(cfg Config, seed *rng.Stream, mutate func(*core.Options)) (e2e, iters, drains float64, err error) {
	n := cfg.Repetitions
	e2es, its, drs := make([]float64, n), make([]float64, n), make([]float64, n)
	if err := cfg.parallelFor(n, func(rep int) error {
		res, err := runOn("wordcount", fleet.ControllerNoStop, cfg.Horizon, seed.Split(fmt.Sprintf("rep-%d", rep)),
			func(s *fleet.Setup) { s.NoStop = mutate })
		if err != nil {
			return err
		}
		e2es[rep] = stats.Mean(res.tailE2E(cfg.Warmup))
		its[rep] = float64(len(res.ctl.Iterations()))
		drs[rep] = float64(res.ctl.Drains())
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	return stats.Mean(e2es), stats.Mean(its), stats.Mean(drs), nil
}

// variant is one row of an option ablation: its label and the NoStop
// option mutation it runs under (nil: the paper's defaults).
type variant struct {
	name   string
	mutate func(*core.Options)
}

// optionAblation scores each variant with ablationRun on its own split of
// the named seed and tabulates the scorecard, one row per variant.
func optionAblation(cfg Config, split, title string, variants []variant, notes ...string) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split(split)
	t := &Table{
		Title:  title,
		Header: []string{"variant", "steady e2e(s)", "iterations", "drains"},
		Notes:  notes,
	}
	for _, v := range variants {
		e2e, iters, drains, err := ablationRun(cfg, seed.Split(v.name), v.mutate)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprintf("%.2f", e2e),
			fmt.Sprintf("%.1f", iters), fmt.Sprintf("%.1f", drains)})
	}
	return t, nil
}

// AblationPenaltyRamp studies Algorithm 1's ρ ramp (1 → 2 by +0.1) against
// fixed penalties.
func AblationPenaltyRamp(cfg Config) (*Table, error) {
	return optionAblation(cfg, "abl-rho", "Ablation: penalty coefficient ρ (Algorithm 1 ramps 1→2)", []variant{
		{"ramp 1→2 (paper)", nil},
		{"fixed ρ=1", func(o *core.Options) { o.Rho0, o.RhoMax = 1, 1 }},
		{"fixed ρ=2", func(o *core.Options) { o.Rho0, o.RhoMax = 2, 2 }},
		{"fixed ρ=8", func(o *core.Options) { o.Rho0, o.RhoMax = 8, 8 }},
	}, "§4.2.2: small early ρ avoids huge early gradients; the cap keeps the interval goal dominant")
}

// AblationFirstBatch studies the §5.4 exclusion of the first batch after a
// reconfiguration.
func AblationFirstBatch(cfg Config) (*Table, error) {
	return optionAblation(cfg, "abl-firstbatch", "Ablation: §5.4 first-batch-after-reconfig exclusion", []variant{
		{"exclude (paper)", nil},
		{"include", func(o *core.Options) { o.IncludeReconfigBatches = true }},
	}, "reconfiguration batches carry executor-registration cost and bias measurements upward")
}

// AblationWindow studies the §5.4 additive-increase measurement window.
func AblationWindow(cfg Config) (*Table, error) {
	return optionAblation(cfg, "abl-window", "Ablation: §5.4 additive-increase measurement window", []variant{
		{"grow 3→10 (paper)", nil},
		{"fixed 3", func(o *core.Options) { o.MeasureBatches, o.MeasureBatchesMax = 3, 3 }},
		{"fixed 10", func(o *core.Options) { o.MeasureBatches, o.MeasureBatchesMax = 10, 10 }},
	}, "a larger window slows each iteration; growth-while-paused damps spurious re-optimization only")
}

// AblationReset studies the §5.5 reset rule under a traffic surge.
func AblationReset(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("abl-reset")
	t := &Table{
		Title:  "Ablation: §5.5 reset on input-rate change (surge 150k→300k rec/s mid-run)",
		Header: []string{"variant", "post-surge e2e(s)", "resets", "drains"},
	}
	surge := func() ratetrace.Trace {
		return ratetrace.Surge{
			Base: 150000, Peak: 300000,
			Start:    sim.Time(cfg.Horizon / 2),
			Duration: cfg.Horizon / 2, // the surge persists to the horizon
		}
	}
	for _, v := range []variant{
		{"reset enabled (paper)", nil},
		{"reset disabled", func(o *core.Options) { o.RateStdThreshold = -1 }},
	} {
		n := cfg.Repetitions
		e2es, resets, drains := make([]float64, n), make([]float64, n), make([]float64, n)
		if err := cfg.parallelFor(n, func(rep int) error {
			res, err := runOn("wordcount", fleet.ControllerNoStop, cfg.Horizon,
				seed.Split(fmt.Sprintf("%s-%d", v.name, rep)),
				func(s *fleet.Setup) { s.Trace, s.NoStop = surge(), v.mutate })
			if err != nil {
				return err
			}
			// Post-surge steady state: the last quarter of the run.
			e2es[rep] = stats.Mean(res.tailE2E(0.75))
			resets[rep] = float64(res.ctl.Resets())
			drains[rep] = float64(res.ctl.Drains())
			return nil
		}); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprintf("%.2f", stats.Mean(e2es)),
			fmt.Sprintf("%.1f", stats.Mean(resets)), fmt.Sprintf("%.1f", stats.Mean(drains))})
	}
	t.Notes = append(t.Notes,
		"the paper's reset restarts from θ_initial, discarding the converged state; the disabled variant's",
		"monitor-resume searches locally around the held configuration instead and often adapts faster —",
		"a genuine finding of this reproduction (see EXPERIMENTS.md)")
	return t, nil
}

// AblationGains sweeps the SPSA gain coefficients a and c (§5.6).
func AblationGains(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("abl-gains")
	t := &Table{
		Title:  "Ablation: SPSA gain coefficients (paper: A=1, a=10, c=2)",
		Header: []string{"a", "c", "steady e2e(s)", "iterations", "drains"},
	}
	for _, a := range []float64{2, 10, 20} {
		for _, c := range []float64{0.5, 2, 4} {
			a, c := a, c
			e2e, iters, drains, err := ablationRun(cfg, seed.Split(fmt.Sprintf("a%v-c%v", a, c)),
				func(o *core.Options) {
					o.Params = spsa.Params{A: 1, Aa: a, C: c, Alpha: 0.602, Gamma: 0.101, MaxStep: 4}
				})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", a), fmt.Sprintf("%.1f", c),
				fmt.Sprintf("%.2f", e2e), fmt.Sprintf("%.1f", iters), fmt.Sprintf("%.1f", drains)})
		}
	}
	t.Notes = append(t.Notes, "§5.6: a ≈ half the normalised range, c ≈ measurement noise std; tiny c makes gradients wild, tiny a stalls")
	return t, nil
}

// AblationScaling studies §5.1's min-max normalisation of both parameters
// into a shared range.
func AblationScaling(cfg Config) (*Table, error) {
	return optionAblation(cfg, "abl-scale", "Ablation: §5.1 shared-range parameter scaling", []variant{
		{"scaled to [1,20] (paper)", nil},
		{"raw physical ranges", func(o *core.Options) { o.RawScale = true }},
	}, "without scaling one step size must serve a 39s range and a 19-executor range simultaneously")
}

// AblationStepClip studies the step-clipping safeguard this reproduction
// adds to SPSA (see DESIGN.md §5): without it, one noisy early gradient can
// fling the configuration across the whole space and destabilise the system.
func AblationStepClip(cfg Config) (*Table, error) {
	return optionAblation(cfg, "abl-clip", "Ablation: SPSA step clipping (reproduction safeguard)", []variant{
		{"clip at 4 norm units (default)", nil},
		{"no clipping", func(o *core.Options) {
			o.Params = spsa.Params{A: 1, Aa: 10, C: 2, Alpha: 0.602, Gamma: 0.101}
		}},
	})
}

// BackPressure contrasts NoStop with Spark's PID back-pressure on an
// overloaded fixed configuration — the abstract's third comparison. Back
// pressure stabilises by refusing input; NoStop reconfigures to absorb it.
func BackPressure(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("backpressure")
	t := &Table{
		Title:  "Back pressure vs NoStop (LogisticRegression, overloaded start: interval 5s, 4 executors)",
		Header: []string{"variant", "steady e2e(s)", "queue", "records dropped/deferred", "throughput(rec/s)"},
	}
	overloaded := engine.Config{BatchInterval: 5 * time.Second, Executors: 4}
	horizon := cfg.Horizon

	// The three variants are independent runs from the same overloaded
	// start: fan them out, each writing only its own row slot so the table
	// order stays fixed.
	variants := []struct{ label, controller, split string }{
		{"no controller (unstable)", fleet.ControllerStatic, "plain"},
		{"back pressure (PID)", fleet.ControllerBackPressure, "bp"},
		{"NoStop (SPSA)", fleet.ControllerNoStop, "nostop"},
	}
	rows := make([][]string, len(variants))
	if err := cfg.parallelFor(len(variants), func(i int) error {
		v := variants[i]
		r, err := runOn("logreg", v.controller, horizon, seed.Split(v.split),
			func(s *fleet.Setup) { s.Initial = overloaded })
		if err != nil {
			return err
		}
		rows[i] = []string{
			v.label,
			fmt.Sprintf("%.2f", stats.Mean(r.tailE2E(cfg.Warmup))),
			fmt.Sprintf("%d", r.eng.QueueLen()),
			// Only back pressure sets a cap; the others never drop.
			fmt.Sprintf("%d", r.eng.DroppedByCap()),
			fmt.Sprintf("%.0f", throughput(r.eng, horizon)),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"back pressure holds delay down by throttling input (lost throughput); NoStop reconfigures and absorbs the full stream")
	return t, nil
}

// throughput computes processed records per second over the run.
func throughput(eng *engine.Engine, horizon time.Duration) float64 {
	var processed int64
	for _, b := range eng.History() {
		processed += b.Records
	}
	return float64(processed) / horizon.Seconds()
}

// AblationObjective compares the measured objective forms: the E2E default
// (end-to-end delay + Eq. 3 penalty) against the paper's literal Eq. 3
// (batch interval + penalty), whose stable-region value is constant in the
// executor dimension and leaves SPSA without gradient there.
func AblationObjective(cfg Config) (*Table, error) {
	return optionAblation(cfg, "abl-objective", "Ablation: measured objective form (§4.2.2)", []variant{
		{"e2e + penalty (default)", nil},
		{"Eq. 3 literal (interval + penalty)", func(o *core.Options) { o.Objective = core.ObjectiveEq3 }},
	}, "Eq. 3 is flat across stable configurations, so the executor estimate random-walks until it destabilises the system")
}
