package experiments

import (
	"fmt"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/fleet"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

// The experiments in this file cover the paper's §7 future work, which this
// reproduction implements: multi-parameter tuning, automatic gain-sequence
// selection, and (extending the paper's transparency claim) adaptation to
// node failures.

// blockBounds returns the default bounds with a tunable block interval.
func blockBounds() engine.Bounds {
	b := engine.DefaultBounds()
	b.MinBlock, b.MaxBlock = 50*time.Millisecond, 2*time.Second
	return b
}

// Extension3Param compares two-parameter NoStop against the §7 future-work
// three-parameter variant that also tunes the receiver block interval.
func Extension3Param(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("ext-3param")
	t := &Table{
		Title:  "Extension (§7): three-parameter tuning (+ receiver block interval)",
		Header: []string{"variant", "steady e2e(s)", "iterations", "final config"},
	}
	for _, v := range []struct {
		name string
		tune bool
	}{
		{"2 parameters (paper)", false},
		{"3 parameters", true},
	} {
		n := cfg.Repetitions
		e2es, iters := make([]float64, n), make([]float64, n)
		finalCfgs := make([]engine.Config, n)
		if err := cfg.parallelFor(n, func(rep int) error {
			res, err := runOn("logreg", fleet.ControllerNoStop, cfg.Horizon,
				seed.Split(fmt.Sprintf("%s-%d", v.name, rep)),
				func(s *fleet.Setup) {
					s.Bounds = blockBounds()
					s.NoStop = func(o *core.Options) { o.TuneBlockInterval = v.tune }
				})
			if err != nil {
				return err
			}
			e2es[rep] = stats.Mean(res.tailE2E(cfg.Warmup))
			iters[rep] = float64(len(res.ctl.Iterations()))
			finalCfgs[rep] = res.eng.Config()
			return nil
		}); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			v.name, meanStd(e2es),
			fmt.Sprintf("%.1f", stats.Mean(iters)),
			// The serial loop reported the last repetition's final config.
			finalCfgs[n-1].String(),
		})
	}
	t.Notes = append(t.Notes,
		"SPSA still takes exactly two measurements per iteration in three dimensions (the paper's §7 point)")
	return t, nil
}

// ExtensionAutoGains compares the paper's hand-chosen gain constants with
// the §7 future-work automatic derivation (c from observed measurement
// noise, a from the normalised span).
func ExtensionAutoGains(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("ext-autogains")
	t := &Table{
		Title:  "Extension (§7): automatic gain-sequence selection",
		Header: []string{"workload", "manual a=10,c=2 e2e(s)", "auto gains e2e(s)"},
	}
	wls := workload.All()
	reps := cfg.Repetitions
	type gainsRun struct{ manual, auto float64 }
	runs := make([]gainsRun, len(wls)*reps)
	if err := cfg.parallelFor(len(runs), func(i int) error {
		name, rep := nameOf(wls[i/reps]), i%reps
		repSeed := seed.Split(fmt.Sprintf("%s-%d", name, rep))
		m, err := runOn(name, fleet.ControllerNoStop, cfg.Horizon, repSeed.Split("manual"), nil)
		if err != nil {
			return err
		}
		runs[i].manual = stats.Mean(m.tailE2E(cfg.Warmup))
		a, err := runOn(name, fleet.ControllerNoStop, cfg.Horizon, repSeed.Split("auto"),
			func(s *fleet.Setup) { s.NoStop = func(o *core.Options) { o.AutoGains = true } })
		if err != nil {
			return err
		}
		runs[i].auto = stats.Mean(a.tailE2E(cfg.Warmup))
		return nil
	}); err != nil {
		return nil, err
	}
	for w, wl := range wls {
		manual, auto := make([]float64, reps), make([]float64, reps)
		for rep := 0; rep < reps; rep++ {
			manual[rep] = runs[w*reps+rep].manual
			auto[rep] = runs[w*reps+rep].auto
		}
		t.Rows = append(t.Rows, []string{wl.Name(), meanStd(manual), meanStd(auto)})
	}
	t.Notes = append(t.Notes,
		"auto gains watch 8 calibration batches, then set c to the observed delay noise (§5.6's rule, automated)")
	return t, nil
}

// ExtensionNodeFailure kills a fast worker node mid-run and reports how the
// tuned system absorbs the 25% capacity loss — extending the paper's claim
// that NoStop "tackles hardware heterogeneity in a transparent manner".
func ExtensionNodeFailure(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("ext-failure")
	t := &Table{
		Title:  "Extension: node failure mid-run (node 5 dies at half-horizon)",
		Header: []string{"variant", "pre-failure e2e(s)", "post-failure e2e(s)", "final queue"},
	}
	for _, v := range []struct{ name, controller string }{
		{"fixed default config", fleet.ControllerStatic},
		{"NoStop", fleet.ControllerNoStop},
	} {
		reps := cfg.Repetitions
		pre, post, queue := make([]float64, reps), make([]float64, reps), make([]float64, reps)
		if err := cfg.parallelFor(reps, func(rep int) error {
			s, err := newSetup("logreg", v.controller, seed.Split(fmt.Sprintf("%s-%d", v.name, rep)))
			if err != nil {
				return err
			}
			det, err := fleet.Assemble(s, fleet.Observe{})
			if err != nil {
				return err
			}
			det.Engine.Clock().At(sim.Time(cfg.Horizon/2), func() { _ = det.Engine.FailNode(5) })
			res := finish(det, cfg.Horizon)
			// Steady-state windows on both sides of the failure: the
			// second quarter (post-convergence, pre-failure) and the
			// final quarter (post-failure).
			n := len(res.history)
			var preXs, postXs []float64
			for i, b := range res.history {
				if b.FirstAfterReconfig {
					continue
				}
				if i >= n/4 && i < n/2 {
					preXs = append(preXs, b.EndToEndDelay.Seconds())
				} else if i >= n*3/4 {
					postXs = append(postXs, b.EndToEndDelay.Seconds())
				}
			}
			pre[rep] = stats.Mean(preXs)
			post[rep] = stats.Mean(postXs)
			queue[rep] = float64(res.eng.QueueLen())
			return nil
		}); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{v.name, meanStd(pre), meanStd(post), fmt.Sprintf("%.1f", stats.Mean(queue))})
	}
	t.Notes = append(t.Notes,
		"node 5 is a fast I5-10400 worker (25% of capacity); the engine reallocates surviving executors automatically")
	return t, nil
}
