// Command nostop-sim runs one simulated Spark-Streaming application under a
// chosen tuner and prints per-phase progress plus a final summary.
//
// Examples:
//
//	nostop-sim -workload logreg -horizon 2h
//	nostop-sim -workload wordcount -tuner bo -seed 7
//	nostop-sim -workload pageanalyze -tuner static -interval 12s -executors 16
//	nostop-sim -horizon 30m -trace out.json -metrics out.prom
//
// -tuner takes any controller registry name (static, nostop, backpressure,
// bo, gp, rl). -trace writes the full record-lifecycle timeline as Chrome
// trace_event JSON (open in chrome://tracing or Perfetto); -metrics writes
// the final Prometheus text exposition. Both are byte-identical across
// same-seed runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nostop/internal/baselines"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/fleet"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

func main() {
	var (
		wlName    = flag.String("workload", "wordcount", "workload: logreg, linreg, wordcount, pageanalyze")
		tuner     = flag.String("tuner", "nostop", "tuner: "+strings.Join(fleet.ControllerNames(), ", "))
		horizon   = flag.Duration("horizon", time.Hour, "virtual run duration")
		seed      = flag.Uint64("seed", 1, "root random seed")
		interval  = flag.Duration("interval", 0, "initial batch interval (default: engine default 30s)")
		executors = flag.Int("executors", 0, "initial executor count (default: engine default 8)")
		rateMin   = flag.Float64("rate-min", 0, "override workload band minimum (records/s)")
		rateMax   = flag.Float64("rate-max", 0, "override workload band maximum (records/s)")
		report    = flag.Duration("report", 10*time.Minute, "progress report period (virtual)")
		failNode  = flag.Int("fail-node", 0, "kill this node ID mid-run (0: no failure)")
		failAt    = flag.Duration("fail-at", 0, "virtual time of the node failure (default: half the horizon)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
		promPath  = flag.String("metrics", "", "write the final Prometheus text exposition to this file")
	)
	flag.Parse()
	if *failAt == 0 {
		*failAt = *horizon / 2
	}
	if err := run(os.Stdout, *wlName, *tuner, *horizon, *seed, *interval, *executors, *rateMin, *rateMax, *report, *failNode, *failAt, *tracePath, *promPath); err != nil {
		fmt.Fprintln(os.Stderr, "nostop-sim:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, wlName, tuner string, horizon time.Duration, seedN uint64,
	interval time.Duration, executors int, rateMin, rateMax float64, report time.Duration,
	failNode int, failAt time.Duration, tracePath, promPath string) error {
	if horizon <= 0 {
		return fmt.Errorf("horizon %v must be positive", horizon)
	}
	if report <= 0 {
		return fmt.Errorf("report period %v must be positive", report)
	}
	seed := rng.New(seedN)
	wl, err := workload.New(wlName)
	if err != nil {
		return err
	}
	min, max := wl.RateBand()
	if rateMin > 0 {
		min = rateMin
	}
	if rateMax > 0 {
		max = rateMax
	}
	if max < min {
		return fmt.Errorf("rate band [%v, %v] inverted", min, max)
	}
	trace := ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split("trace"))

	initial := engine.DefaultConfig()
	if interval > 0 {
		initial.BatchInterval = interval
	}
	if executors > 0 {
		initial.Executors = executors
	}

	obs := fleet.Observe{Trace: tracePath != ""}
	if promPath != "" {
		obs.Metrics = metrics.NewRegistry()
	}
	det, err := fleet.Assemble(fleet.Setup{
		Workload:   wl,
		Trace:      trace,
		Seed:       seed,
		Initial:    initial,
		Controller: tuner,
	}, obs)
	if err != nil {
		return err
	}
	eng, clock := det.Engine, det.Engine.Clock()
	ctl, _ := det.Controller.(*core.Controller)
	bo, _ := det.Controller.(*baselines.BayesOpt)

	if failNode > 0 {
		node, at := failNode, failAt
		clock.At(sim.Time(at), func() {
			if err := eng.FailNode(node); err != nil {
				fmt.Fprintf(os.Stderr, "fail-node: %v\n", err)
			} else {
				fmt.Fprintf(out, "t=%7s  node %d FAILED (%d executors survive)\n",
					at.Truncate(time.Second), node, eng.LiveExecutors())
			}
		})
	}

	fmt.Fprintf(out, "workload %s, band [%.0f, %.0f] rec/s, tuner %s, horizon %v, initial %v\n\n",
		wl.Name(), min, max, tuner, horizon, initial)

	// The last segment may be shorter than report: the run always ends
	// at the horizon.
	for t := sim.Time(0); t < sim.Time(horizon); {
		if t += sim.Time(report); t > sim.Time(horizon) {
			t = sim.Time(horizon)
		}
		clock.RunUntil(t)
		h := eng.History()
		var tail []float64
		for _, b := range h[len(h)*8/10:] {
			tail = append(tail, b.EndToEndDelay.Seconds())
		}
		status := ""
		if ctl != nil {
			status = fmt.Sprintf("  phase=%-9v iters=%d", ctl.Phase(), len(ctl.Iterations()))
		}
		if bo != nil {
			status = fmt.Sprintf("  evals=%d done=%v", len(bo.Evaluations()), bo.Done())
		}
		fmt.Fprintf(out, "t=%7s  cfg=%v  queue=%d  rate=%.0f/s  recent e2e=%.1fs%s\n",
			time.Duration(t).Truncate(time.Second), eng.Config(), eng.QueueLen(),
			eng.RecentRateMean(), stats.Mean(tail), status)
	}

	h := eng.History()
	var all, tail []float64
	for i, b := range h {
		all = append(all, b.EndToEndDelay.Seconds())
		if i >= len(h)*7/10 {
			tail = append(tail, b.EndToEndDelay.Seconds())
		}
	}
	s := stats.Summarize(tail)
	fmt.Fprintf(out, "\nsummary: %d batches, %d records\n", len(h), eng.TotalRecords())
	fmt.Fprintf(out, "  steady-state e2e delay: mean %.2fs  p50 %.2fs  p95 %.2fs  max %.2fs\n",
		s.Mean, s.P50, s.P95, s.Max)
	fmt.Fprintf(out, "  whole-run e2e delay:    mean %.2fs\n", stats.Mean(all))
	fmt.Fprintf(out, "  final configuration:    %v\n", eng.Config())
	if ctl != nil {
		fmt.Fprintf(out, "  nostop: %d iterations, %d configure steps, %d pauses, %d resets, %d drains\n",
			len(ctl.Iterations()), ctl.ConfigureSteps(), ctl.Pauses(), ctl.Resets(), ctl.Drains())
	}
	if dropped := eng.DroppedByCap(); dropped > 0 {
		fmt.Fprintf(out, "  records dropped by rate cap: %d\n", dropped)
	}
	if promPath != "" {
		if err := os.WriteFile(promPath, []byte(obs.Metrics.String()), 0o644); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
		fmt.Fprintf(out, "  metrics: Prometheus exposition written to %s\n", promPath)
	}
	if tracePath != "" {
		if err := writeTrace(out, det.Tracer, tracePath); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace serialises the trace and validates the result against the
// Chrome trace_event schema shape, failing the run on a malformed file.
func writeTrace(out io.Writer, tr *tracing.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rf, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("validate trace: %w", err)
	}
	defer rf.Close()
	n, err := tracing.Validate(rf)
	if err != nil {
		return fmt.Errorf("validate trace: %w", err)
	}
	fmt.Fprintf(out, "  trace: %d events written to %s (schema valid)\n", n, path)
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(out, "  trace: %d events dropped at the %d-event cap\n", d, tracing.DefaultMaxEvents)
	}
	return nil
}
