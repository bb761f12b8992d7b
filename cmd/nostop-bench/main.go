// Command nostop-bench regenerates the paper's tables and figures against
// the simulated substrate and prints them as text tables (or CSV).
//
// Examples:
//
//	nostop-bench -experiment all
//	nostop-bench -experiment fig7 -reps 5 -horizon 2h
//	nostop-bench -experiment fig2 -csv > fig2.csv
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
		name    = fs.String("experiment", "all", "experiment to run: "+valid)
		seed    = fs.Uint64("seed", 1, "root random seed")
		reps    = fs.Int("reps", 0, "repetitions for averaged experiments (0: paper's 5)")
		horizon = fs.Duration("horizon", 0, "virtual run duration (0: 2h)")
		quick   = fs.Bool("quick", false, "use the reduced quick configuration")
		csv     = fs.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Seed: *seed, Repetitions: *reps, Horizon: *horizon}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *quick {
		cfg = experiments.Quick()
		cfg.Seed = *seed
	}

	if *name == "all" {
		if *csv {
			return errors.New("-csv requires a single experiment")
		}
		return experiments.RunAll(stdout, cfg)
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
