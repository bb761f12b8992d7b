// Command nostop-bench regenerates the paper's tables and figures, the
// ablations, the extensions, the chaos experiment and the controller zoo
// against the simulated substrate, and prints them as text tables (or CSV).
// It is the one way to run an experiment.
//
// Examples:
//
//	nostop-bench -experiment all
//	nostop-bench -experiment fig7 -reps 5 -horizon 2h
//	nostop-bench -experiment fig2 -csv > fig2.csv
//	nostop-bench -experiment zoo -reps 5 -j 1
//	nostop-bench -experiment chaos -mode chaos -seed 7 -intensity 2 -workload wordcount
//
// -j changes wall time only, never a byte of output. -quick supplies a
// reduced scale; -reps and -horizon given with it still apply.
// -workload, -mode and -intensity apply to -experiment chaos only, which
// also prints the fault plan and the NoStop run's injected timeline after
// its table (not with -csv).
//
// The simulator's performance benchmark is perfbench (perfbench/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nostop/internal/experiments"
	"nostop/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nostop-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	valid := "all, " + strings.Join(experiments.Names(), ", ")
	fs := flag.NewFlagSet("nostop-bench", flag.ContinueOnError)
	var (
		name      = fs.String("experiment", "all", "experiment to run: "+valid)
		seed      = fs.Uint64("seed", 1, "root random seed")
		reps      = fs.Int("reps", 0, "repetitions for averaged experiments (0: paper's 5)")
		horizon   = fs.Duration("horizon", 0, "virtual run duration (0: 2h)")
		quick     = fs.Bool("quick", false, "use the reduced quick scale; -reps and -horizon override it")
		jobs      = fs.Int("j", 0, "concurrent simulation runs (0: NumCPU); changes wall time only")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		wl        = fs.String("workload", "logreg", "chaos only: workload: "+strings.Join(workload.Names(), ", "))
		mode      = fs.String("mode", "scripted", "chaos only: fault plan source: scripted or chaos")
		intensity = fs.Float64("intensity", 1, "chaos only: -mode chaos pressure; >1 packs faults tighter and harder")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg experiments.Config
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed, cfg.Parallelism = *seed, *jobs
	var chaosFlag string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "reps":
			cfg.Repetitions = *reps
		case "horizon":
			cfg.Horizon = *horizon
		case "workload", "mode", "intensity":
			chaosFlag = f.Name
		}
	})
	if err := cfg.Validate(); err != nil {
		return err
	}
	if chaosFlag != "" && *name != "chaos" {
		return fmt.Errorf("-%s applies only to -experiment chaos", chaosFlag)
	}

	switch *name {
	case "all":
		if *csv {
			return errors.New("-csv requires a single experiment")
		}
		return experiments.RunAll(stdout, cfg)
	case "chaos":
		return runChaos(stdout, cfg, *wl, *mode, *intensity, *csv)
	}
	e, ok := experiments.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *name, valid)
	}
	t, err := e.Run(cfg)
	if err != nil {
		return err
	}
	if *csv {
		t.CSV(stdout)
	} else {
		t.Render(stdout)
	}
	return nil
}

// runChaos runs the chaos experiment on wl under the plan -mode picks. The
// table is followed by the plan and the NoStop run's injected timeline,
// unless the output is CSV.
func runChaos(w io.Writer, cfg experiments.Config, wl, mode string, intensity float64, csv bool) error {
	plan, err := experiments.ChaosPlanFor(cfg, mode, intensity)
	if err != nil {
		return err
	}
	t, timeline, err := experiments.ChaosUnderPlan(cfg, wl, plan)
	if err != nil {
		return err
	}
	if csv {
		t.CSV(w)
		return nil
	}
	t.Render(w)
	fmt.Fprintln(w, "Fault plan:")
	for _, f := range plan {
		fmt.Fprintf(w, "  %v\n", f)
	}
	fmt.Fprintln(w, "\nInjected timeline (NoStop run):")
	for _, line := range strings.Split(strings.TrimRight(timeline, "\n"), "\n") {
		fmt.Fprintf(w, "  %s\n", line)
	}
	return nil
}
