package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nostop/internal/engine"
	"nostop/internal/faults"
	"nostop/internal/fleet"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

// ChaosPlan is the scripted fault schedule the chaos experiment replays
// against every variant: one window of each recoverable fault class, spread
// over the middle half of the horizon so the first quarter establishes the
// pre-fault steady state and the last quarter shows recovery.
func ChaosPlan(horizon time.Duration) faults.Plan {
	at := func(f float64) sim.Time { return sim.Time(float64(horizon) * f) }
	dur := func(f float64) time.Duration { return time.Duration(float64(horizon) * f) }
	return faults.Plan{
		{Kind: faults.Straggler, At: at(0.30), Duration: dur(0.06), NodeID: 4, Factor: 4},
		{Kind: faults.TaskFailures, At: at(0.42), Duration: dur(0.05), Prob: 0.5},
		{Kind: faults.PartitionOutage, At: at(0.53), Duration: dur(0.05), Partition: 1},
		{Kind: faults.NodeCrash, At: at(0.64), Duration: dur(0.06), NodeID: 5},
		{Kind: faults.IngestSpike, At: at(0.72), Duration: dur(0.04), Factor: 1.6},
	}
}

// ChaosPlanFor returns the plan a chaos run replays under cfg: ChaosPlan
// for mode "scripted", or for mode "chaos" a random schedule drawn from
// cfg.Seed, whose faults come closer together and hit harder as intensity
// grows past 1.
func ChaosPlanFor(cfg Config, mode string, intensity float64) (faults.Plan, error) {
	cfg = cfg.withDefaults()
	if intensity <= 0 {
		return nil, fmt.Errorf("experiments: chaos intensity %v must be positive", intensity)
	}
	switch mode {
	case "scripted":
		return ChaosPlan(cfg.Horizon), nil
	case "chaos":
	default:
		return nil, fmt.Errorf("experiments: unknown chaos mode %q (valid: scripted, chaos)", mode)
	}
	plan := faults.Chaos(rng.New(cfg.Seed).Split("chaos-plan"), faults.ChaosOptions{
		Horizon:     cfg.Horizon,
		MeanGap:     time.Duration(float64(cfg.Horizon) / (10 * intensity)),
		MaxStraggle: 2 + 4*intensity,
		MaxTaskFail: min(0.9, 0.5*intensity),
		MaxSpike:    1.3 + 1.2*intensity,
	})
	if len(plan) == 0 {
		return nil, fmt.Errorf("experiments: chaos generated no faults over %v; raise the horizon or the intensity", cfg.Horizon)
	}
	return plan, nil
}

// SteadyE2E averages clean-batch end-to-end delay over [from, to); NaN when
// no clean batch completed in the window.
func SteadyE2E(history []engine.BatchStats, from, to sim.Time) float64 {
	var xs []float64
	for _, b := range history {
		if b.DoneAt < from || b.DoneAt >= to || b.FirstAfterReconfig || b.FaultActive {
			continue
		}
		xs = append(xs, b.EndToEndDelay.Seconds())
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Mean(xs)
}

// fmtE2E renders a steadyE2E mean, or "n/a" for an empty window.
func fmtE2E(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// RecoveryWindow is how many consecutive clean batches must sit inside the
// recovery band before the system counts as recovered.
const RecoveryWindow = 3

// RecoveryTime returns how long after the last fault lifts the rolling mean
// of clean-batch e2e delay re-enters 1.2× the pre-fault steady state
// (negative if it never does within the run).
func RecoveryTime(history []engine.BatchStats, planEnd sim.Time, preFault float64) time.Duration {
	band := 1.2 * preFault
	var window []float64
	for _, b := range history {
		if b.DoneAt < planEnd || b.FirstAfterReconfig || b.FaultActive {
			continue
		}
		window = append(window, b.EndToEndDelay.Seconds())
		if len(window) > RecoveryWindow {
			window = window[1:]
		}
		if len(window) == RecoveryWindow && stats.Mean(window) <= band {
			return time.Duration(b.DoneAt - planEnd)
		}
	}
	return -1
}

// fmtRecovery renders a recovery time, or "never" for runs that stay
// degraded to the end of the horizon.
func fmtRecovery(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return d.Round(time.Second).String()
}

// Chaos runs the scripted fault plan against the default static
// configuration, Spark's PID back-pressure, and NoStop, and reports recovery
// behaviour: how far delay degrades, how fast it returns to within 20% of
// the pre-fault steady state, and the resilience accounting (failed batches,
// retries, replayed records, records lost).
func Chaos(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t, _, err := ChaosUnderPlan(cfg, "logreg", ChaosPlan(cfg.Horizon))
	return t, err
}

// ChaosUnderPlan is Chaos parameterized by workload and fault plan
// (nostop-bench -experiment chaos feeds it ChaosPlanFor's plan). The
// returned string is the NoStop run's injected fault timeline.
func ChaosUnderPlan(cfg Config, wlName string, plan faults.Plan) (*Table, string, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("chaos")
	wl, err := workload.New(wlName)
	if err != nil {
		return nil, "", err
	}
	if len(plan) == 0 {
		return nil, "", fmt.Errorf("experiments: empty fault plan")
	}
	planEnd := plan.End()
	preFrom, preTo := sim.Time(float64(cfg.Horizon)*0.15), plan.Start()
	if preFrom >= preTo {
		preFrom = preTo / 2
	}

	t := &Table{
		Title: fmt.Sprintf("Chaos: %d fault windows under default / back-pressure / NoStop (%s)", len(plan), wl.Name()),
		Header: []string{"variant", "pre-fault e2e(s)", "post-recovery e2e(s)", "p50/p95 e2e(s)", "recovery",
			"failed", "retries", "replayed", "lost"},
	}

	var timeline string
	for _, v := range []struct{ name, controller string }{
		{"default static", fleet.ControllerStatic},
		{"back pressure (PID)", fleet.ControllerBackPressure},
		{"NoStop", fleet.ControllerNoStop},
	} {
		// Every variant derives its trace from the same split path, so all
		// see identical arrivals.
		vseed := seed.Split(v.name)
		det, err := fleet.Assemble(fleet.Setup{
			Workload:       wl, // shared: the published rows depend on its carried fit state (DESIGN.md §5c)
			Trace:          bandTrace(wl, vseed.Split("trace")),
			Seed:           vseed,
			ControllerSeed: seed, // the experiment root, not the variant's stream
			Plan:           plan,
			Controller:     v.controller,
		}, fleet.Observe{})
		if err != nil {
			return nil, "", err
		}
		res := finish(det, cfg.Horizon)
		eng := res.eng
		pre := SteadyE2E(res.history, preFrom, preTo)
		post := SteadyE2E(res.history, planEnd, sim.Time(cfg.Horizon))
		t.Rows = append(t.Rows, []string{
			v.name,
			fmtE2E(pre),
			fmtE2E(post),
			faultedDistribution(res.history, plan.Start()),
			fmtRecovery(RecoveryTime(res.history, planEnd, pre)),
			fmt.Sprintf("%d", eng.FailedBatches()),
			fmt.Sprintf("%d", eng.TaskRetries()),
			fmt.Sprintf("%d", eng.Redelivered()),
			fmt.Sprintf("%d", eng.FailedRecords()),
		})
		if res.inj.Injected() != len(plan) {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: only %d/%d fault windows injected", v.name, res.inj.Injected(), len(plan)))
		}
		if ctl := res.ctl; ctl != nil {
			if !eng.ConfigBounds().Contains(ctl.Estimate()) {
				t.Notes = append(t.Notes, fmt.Sprintf("NoStop estimate %v escaped engine bounds", ctl.Estimate()))
			} else {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"NoStop excluded %d fault batches, recalibrated %d times, estimate %v stayed in bounds",
					ctl.FaultBatches(), ctl.Recalibrations(), ctl.Estimate()))
			}
		}
		timeline = res.inj.String() // identical plan per variant; last (NoStop) kept
	}
	t.Notes = append(t.Notes,
		"p50/p95 cover every batch completed from the first fault onset on (fault windows included)",
		"recovery = rolling clean-batch e2e mean back within 1.2x of the pre-fault steady state after the last fault lifts",
		"replayed counts at-least-once redeliveries after the partition outage; lost counts records in batches that exhausted the retry budget")
	return t, timeline, nil
}

// faultedDistribution renders the p50/p95 end-to-end delay over every batch
// completed from the first fault onset to the end of the run.
func faultedDistribution(history []engine.BatchStats, from sim.Time) string {
	var xs []float64
	for _, b := range history {
		if b.DoneAt >= from {
			xs = append(xs, b.EndToEndDelay.Seconds())
		}
	}
	if len(xs) == 0 {
		return "n/a"
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return fmt.Sprintf("%.1f/%.1f", stats.Percentile(sorted, 0.50), stats.Percentile(sorted, 0.95))
}
