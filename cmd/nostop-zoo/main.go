// nostop-zoo runs the controller-zoo head-to-head: every registered tuner
// (static floor, the paper's SPSA controller, Spark back-pressure, the
// uncertainty-aware GP tuner, and the tabular Q-learning tuner) over the
// same widened configuration space under the scripted chaos plan, and
// prints the delay / recovery / shedding comparison table.
//
// The report is a pure function of (-seed, -seeds, -horizon, -warmup): -j
// changes wall time only, never a byte of output, which is what the
// zoo-smoke CI job pins with cmp. Typical runs:
//
//	nostop-zoo                          # 3 seeds, 40m horizon
//	nostop-zoo -seeds 5 -horizon 2h     # the paper-scale comparison
//	nostop-zoo -j 1 -out a.txt          # byte-stable report for diffing
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"nostop/internal/experiments"
	"nostop/internal/fleet"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "base seed; replication r uses seed+r")
		seeds   = flag.Int("seeds", 3, "number of replication seeds per controller")
		horizon = flag.Duration("horizon", 40*time.Minute, "virtual run duration per job")
		warmup  = flag.Float64("warmup", 0.5, "fraction of each run discarded before measuring")
		j       = flag.Int("j", 0, "worker pool size (0: NumCPU); affects wall time only, never the report")
		out     = flag.String("out", "", "also write the rendered report to this file (atomic)")
	)
	flag.Parse()

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "nostop-zoo: -seeds %d must be at least 1\n", *seeds)
		os.Exit(2)
	}
	cfg := experiments.Config{
		Seed:        *seed,
		Repetitions: *seeds,
		Horizon:     *horizon,
		Warmup:      *warmup,
		Parallelism: *j,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nostop-zoo: %v\n", err)
		os.Exit(2)
	}
	tab, err := experiments.ControllerZoo(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nostop-zoo: %v\n", err)
		os.Exit(1)
	}
	tab.Render(os.Stdout)
	if *out != "" {
		var buf bytes.Buffer
		tab.Render(&buf)
		if err := fleet.WriteFileAtomic(*out, buf.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "nostop-zoo: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
}
