package experiments

import (
	"fmt"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/fleet"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

// fig2Executors is the fixed executor count for the Fig 2 interval sweep.
const fig2Executors = 12

// fig3Interval is the fixed batch interval for the Fig 3 executor sweep.
const fig3Interval = 12 * time.Second

// sweepPoint is one measured configuration of a Fig 2/3 static sweep; the
// sweep runs fan out over the fleet pool and land in per-index slots.
type sweepPoint struct {
	proc, sched, e2e float64
}

// steadyBatchStats averages processing time and scheduling delay over the
// post-warmup batches of a run.
func steadyBatchStats(history []engine.BatchStats, warmup float64) (procMean, schedMean, e2eMean float64) {
	start := int(float64(len(history)) * warmup)
	var proc, sched, e2e []float64
	for _, b := range history[start:] {
		proc = append(proc, b.ProcessingTime.Seconds())
		sched = append(sched, b.SchedulingDelay.Seconds())
		e2e = append(e2e, b.EndToEndDelay.Seconds())
	}
	return stats.Mean(proc), stats.Mean(sched), stats.Mean(e2e)
}

// Fig2 sweeps the batch interval for Streaming Logistic Regression at the
// paper's [7000, 13000] rec/s band with a fixed executor count, reporting
// batch processing time (Fig 2a) and batch schedule delay (Fig 2b).
//
// Expected shape: processing time grows slowly with the interval; below a
// knee (≈10 s in the paper) processing exceeds the interval, the system is
// unstable and schedule delay explodes; the minimum end-to-end delay sits
// just above the knee.
func Fig2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("fig2")
	t := &Table{
		Title:  "Fig 2: effect of batch interval (Streaming Logistic Regression)",
		Header: []string{"interval(s)", "proc time(s)", "sched delay(s)", "e2e delay(s)", "stable"},
	}
	wl := workload.NewLogisticRegression()
	min, max := wl.RateBand()
	// A shorter horizon suffices: no optimizer to converge, but unstable
	// points need enough time for the delay to show its divergence.
	horizon := cfg.Horizon / 4
	var intervals []int
	for interval := 2; interval <= 40; interval += 2 {
		intervals = append(intervals, interval)
	}
	points := make([]sweepPoint, len(intervals))
	if err := cfg.parallelFor(len(intervals), func(i int) error {
		interval := intervals[i]
		res, err := runOn("logreg", fleet.ControllerStatic, horizon, seed.Split(fmt.Sprintf("run-%d", interval)),
			func(s *fleet.Setup) {
				s.Trace = ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split(fmt.Sprintf("trace-%d", interval)))
				s.Initial = engine.Config{BatchInterval: time.Duration(interval) * time.Second, Executors: fig2Executors}
			})
		if err != nil {
			return err
		}
		points[i].proc, points[i].sched, points[i].e2e = steadyBatchStats(res.history, 0.3)
		return nil
	}); err != nil {
		return nil, err
	}
	bestInterval, bestE2E := 0.0, -1.0
	kneeSeen := false
	for i, interval := range intervals {
		p := points[i]
		stable := p.sched < 1 && p.proc <= float64(interval)
		if stable && (bestE2E < 0 || p.e2e < bestE2E) {
			bestInterval, bestE2E = float64(interval), p.e2e
		}
		if !stable {
			kneeSeen = true
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", interval),
			fmt.Sprintf("%.2f", p.proc),
			fmt.Sprintf("%.2f", p.sched),
			fmt.Sprintf("%.2f", p.e2e),
			fmt.Sprintf("%v", stable),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("minimum stable e2e delay %.2fs at interval %.0fs (paper: knee ≈10s)", bestE2E, bestInterval))
	if kneeSeen {
		t.Notes = append(t.Notes, "intervals below the knee are unstable: schedule delay diverges (Fig 2b)")
	}
	return t, nil
}

// Fig3 sweeps the executor count for Streaming Logistic Regression with a
// fixed batch interval, reporting processing time (Fig 3a) and schedule
// delay (Fig 3b).
//
// Expected shape: few executors are slow (unstable below a threshold);
// processing time falls with parallelism, then turns back up as
// coordination overhead dominates — the best count sits near the top of
// the range (≈20 in the paper).
func Fig3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("fig3")
	t := &Table{
		Title:  "Fig 3: effect of executor count (Streaming Logistic Regression)",
		Header: []string{"executors", "proc time(s)", "sched delay(s)", "e2e delay(s)", "stable"},
	}
	wl := workload.NewLogisticRegression()
	min, max := wl.RateBand()
	horizon := cfg.Horizon / 4
	var execCounts []int
	for execs := 2; execs <= 20; execs += 2 {
		execCounts = append(execCounts, execs)
	}
	points := make([]sweepPoint, len(execCounts))
	if err := cfg.parallelFor(len(execCounts), func(i int) error {
		execs := execCounts[i]
		res, err := runOn("logreg", fleet.ControllerStatic, horizon, seed.Split(fmt.Sprintf("run-%d", execs)),
			func(s *fleet.Setup) {
				s.Trace = ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split(fmt.Sprintf("trace-%d", execs)))
				s.Initial = engine.Config{BatchInterval: fig3Interval, Executors: execs}
			})
		if err != nil {
			return err
		}
		points[i].proc, points[i].sched, points[i].e2e = steadyBatchStats(res.history, 0.3)
		return nil
	}); err != nil {
		return nil, err
	}
	for i, execs := range execCounts {
		p := points[i]
		stable := p.sched < 1 && p.proc <= fig3Interval.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", execs),
			fmt.Sprintf("%.2f", p.proc),
			fmt.Sprintf("%.2f", p.sched),
			fmt.Sprintf("%.2f", p.e2e),
			fmt.Sprintf("%v", stable),
		})
	}
	// Locate the processing-time minimum for the note.
	bestIdx := 0
	for i := range points {
		if points[i].proc < points[bestIdx].proc {
			bestIdx = i
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("processing time minimal at %d executors (paper: ≈20); overhead bends the curve back up past the optimum",
			2+2*bestIdx))
	return t, nil
}

// Fig5 samples each workload's §6.2.2 input-rate trace, reporting the
// band the generator actually produced.
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("fig5")
	t := &Table{
		Title:  "Fig 5: input data rates (records/s sampled over 10 min)",
		Header: []string{"workload", "band (paper)", "observed min", "observed mean", "observed max"},
	}
	for _, wl := range workload.All() {
		min, max := wl.RateBand()
		tr := ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split(wl.Name()))
		_, rates := ratetrace.Sample(tr, 10*time.Minute, time.Second)
		s := stats.Summarize(rates)
		t.Rows = append(t.Rows, []string{
			wl.Name(),
			fmt.Sprintf("[%.0f, %.0f]", min, max),
			fmt.Sprintf("%.0f", s.Min),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.0f", s.Max),
		})
	}
	t.Notes = append(t.Notes, "rates re-drawn uniformly in-band every 5s, matching the paper's generator")
	return t, nil
}

// Fig6 traces NoStop's optimization evolution on each workload: the batch
// interval estimate and the measured processing time per iteration.
//
// Expected shape: early iterations swing widely (large gains), the interval
// descends toward the stability frontier while the constraint keeps
// holding, and the ML workloads show the most dynamic traces.
func Fig6(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("fig6")
	t := &Table{
		Title:  "Fig 6: optimization evolution (per-iteration estimate)",
		Header: []string{"workload", "iter", "time(s)", "interval(s)", "executors", "meanProc(s)", "y+", "y-"},
	}
	wls := workload.All()
	results := make([]*runResult, len(wls))
	if err := cfg.parallelFor(len(wls), func(i int) error {
		name := nameOf(wls[i])
		res, err := runOn(name, fleet.ControllerNoStop, cfg.Horizon, seed.Split(name), nil)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	for i, wl := range wls {
		res := results[i]
		its := res.ctl.Iterations()
		// Downsample long traces to ≤12 rows per workload for the table;
		// the full series is available programmatically.
		step := 1
		if len(its) > 12 {
			step = len(its) / 12
		}
		for i := 0; i < len(its); i += step {
			it := its[i]
			t.Rows = append(t.Rows, []string{
				wl.Name(),
				fmt.Sprintf("%d", it.K),
				fmt.Sprintf("%.0f", it.At.Seconds()),
				fmt.Sprintf("%.1f", it.Estimate.BatchInterval.Seconds()),
				fmt.Sprintf("%d", it.Estimate.Executors),
				fmt.Sprintf("%.2f", it.MeanProc.Seconds()),
				fmt.Sprintf("%.1f", it.YPlus),
				fmt.Sprintf("%.1f", it.YMinus),
			})
		}
		final := res.ctl.Estimate()
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d iterations, final %v, phase %v",
			wl.Name(), len(its), final, res.ctl.Phase()))
	}
	return t, nil
}

// Fig6Series returns the full per-iteration series for a workload — the
// data behind the figure, used by tests and external plotting.
func Fig6Series(cfg Config, wlName string) (interval, proc *stats.Series, err error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("fig6")
	res, err := runOn(wlName, fleet.ControllerNoStop, cfg.Horizon, seed.Split(wlName), nil)
	if err != nil {
		return nil, nil, err
	}
	interval = &stats.Series{Name: wlName + "/interval"}
	proc = &stats.Series{Name: wlName + "/proc"}
	for _, it := range res.ctl.Iterations() {
		interval.Append(float64(it.K), it.Estimate.BatchInterval.Seconds())
		proc.Append(float64(it.K), it.MeanProc.Seconds())
	}
	return interval, proc, nil
}

// nameOf maps a workload instance to its registry name.
func nameOf(wl workload.Workload) string {
	switch wl.Name() {
	case "LogisticRegression":
		return "logreg"
	case "LinearRegression":
		return "linreg"
	case "WordCount":
		return "wordcount"
	case "PageAnalyze":
		return "pageanalyze"
	default:
		return wl.Name()
	}
}

// Fig7 compares NoStop against the default configuration on every workload,
// repeated Repetitions times; it reports mean ± std of steady-state
// end-to-end delay and the improvement factor.
//
// Expected shape: NoStop significantly reduces the delay on all four
// workloads.
func Fig7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("fig7")
	t := &Table{
		Title:  fmt.Sprintf("Fig 7: improvement over default configuration (%d runs)", cfg.Repetitions),
		Header: []string{"workload", "default e2e(s)", "NoStop e2e(s)", "improvement"},
	}
	wls := workload.All()
	reps := cfg.Repetitions
	// Flatten (workload, repetition) into one fan-out; each run-pair writes
	// only its own slot, so per-workload tails reassemble in rep order.
	type fig7Run struct{ def, tuned float64 }
	runs := make([]fig7Run, len(wls)*reps)
	if err := cfg.parallelFor(len(runs), func(i int) error {
		name, rep := nameOf(wls[i/reps]), i%reps
		repSeed := seed.Split(fmt.Sprintf("%s-%d", name, rep))
		defRes, err := runOn(name, fleet.ControllerStatic, cfg.Horizon, repSeed.Split("default"), nil)
		if err != nil {
			return err
		}
		runs[i].def = stats.Mean(defRes.tailE2E(cfg.Warmup))
		tunedRes, err := runOn(name, fleet.ControllerNoStop, cfg.Horizon, repSeed.Split("nostop"), nil)
		if err != nil {
			return err
		}
		runs[i].tuned = stats.Mean(tunedRes.tailE2E(cfg.Warmup))
		return nil
	}); err != nil {
		return nil, err
	}
	for w, wl := range wls {
		defTail, tunedTail := make([]float64, reps), make([]float64, reps)
		for rep := 0; rep < reps; rep++ {
			defTail[rep] = runs[w*reps+rep].def
			tunedTail[rep] = runs[w*reps+rep].tuned
		}
		imp := stats.Mean(defTail) / stats.Mean(tunedTail)
		t.Rows = append(t.Rows, []string{
			wl.Name(),
			meanStd(defTail),
			meanStd(tunedTail),
			fmt.Sprintf("%.2fx", imp),
		})
	}
	t.Notes = append(t.Notes, "default configuration: interval 30s, 8 executors; NoStop starts from θ_initial mid-range")
	return t, nil
}

// Fig8 compares SPSA (NoStop) with Bayesian Optimization on final delay,
// search time, and configure steps, repeated Repetitions times.
//
// Expected shape: comparable final delays, but SPSA converges with fewer
// configuration changes and less search time.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seed := rng.New(cfg.Seed).Split("fig8")
	t := &Table{
		Title:  fmt.Sprintf("Fig 8: SPSA vs Bayesian Optimization (%d runs)", cfg.Repetitions),
		Header: []string{"workload", "tuner", "final e2e(s)", "search time(s)", "config steps"},
	}
	wls := workload.All()
	reps := cfg.Repetitions
	type fig8Run struct {
		spsaE2E, spsaTime, spsaSteps float64
		boE2E, boTime, boSteps       float64
	}
	runs := make([]fig8Run, len(wls)*reps)
	if err := cfg.parallelFor(len(runs), func(i int) error {
		name, rep := nameOf(wls[i/reps]), i%reps
		repSeed := seed.Split(fmt.Sprintf("%s-%d", name, rep))
		ns, err := runOn(name, fleet.ControllerNoStop, cfg.Horizon, repSeed.Split("nostop"), nil)
		if err != nil {
			return err
		}
		runs[i].spsaE2E = stats.Mean(ns.tailE2E(cfg.Warmup))
		runs[i].spsaSteps = float64(ns.ctl.ConfigureSteps())
		runs[i].spsaTime = searchTimeNoStop(ns)
		bo, err := runOn(name, fleet.ControllerBayesOpt, cfg.Horizon, repSeed.Split("bo"), nil)
		if err != nil {
			return err
		}
		runs[i].boE2E = stats.Mean(bo.tailE2E(cfg.Warmup))
		runs[i].boSteps = float64(bo.bo.ConfigureSteps())
		runs[i].boTime = searchTimeBO(bo)
		return nil
	}); err != nil {
		return nil, err
	}
	for w, wl := range wls {
		var spsaE2E, spsaTime, spsaSteps []float64
		var boE2E, boTime, boSteps []float64
		for rep := 0; rep < reps; rep++ {
			r := runs[w*reps+rep]
			spsaE2E = append(spsaE2E, r.spsaE2E)
			spsaTime = append(spsaTime, r.spsaTime)
			spsaSteps = append(spsaSteps, r.spsaSteps)
			boE2E = append(boE2E, r.boE2E)
			boTime = append(boTime, r.boTime)
			boSteps = append(boSteps, r.boSteps)
		}
		t.Rows = append(t.Rows, []string{wl.Name(), "SPSA (NoStop)", meanStd(spsaE2E), meanStd(spsaTime), meanStd(spsaSteps)})
		t.Rows = append(t.Rows, []string{wl.Name(), "BayesOpt", meanStd(boE2E), meanStd(boTime), meanStd(boSteps)})
	}
	t.Notes = append(t.Notes, "search time = virtual seconds until the tuner paused/finished (horizon if it never did)")
	return t, nil
}

// searchTimeNoStop is the time of the last completed iteration when the
// controller ended the run paused (the pause decision is taken inside that
// iteration); if it was still searching at the horizon, the whole run
// counts as search time.
func searchTimeNoStop(r *runResult) float64 {
	its := r.ctl.Iterations()
	if r.ctl.Phase() == core.PhasePaused && len(its) > 0 {
		return its[len(its)-1].At.Seconds()
	}
	return r.eng.Clock().Now().Seconds()
}

// searchTimeBO is the time the BO search stopped (horizon if running).
func searchTimeBO(r *runResult) float64 {
	if r.bo.Done() {
		return r.bo.DoneAt().Seconds()
	}
	evals := r.bo.Evaluations()
	if len(evals) == 0 {
		return 0
	}
	return evals[len(evals)-1].At.Seconds()
}
