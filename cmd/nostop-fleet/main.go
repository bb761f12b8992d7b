// Command nostop-fleet runs parallel, deterministic, resumable experiment
// sweeps: it expands a declarative sweep spec into independent simulation
// jobs, executes them on a bounded worker pool, and writes a byte-stable
// manifest plus per-cell aggregates. The worker count changes wall time
// only — never a single result byte (see docs/FLEET.md).
//
// Examples:
//
//	nostop-fleet -workloads logreg,wordcount -controllers static,nostop -seeds 1-5
//	nostop-fleet -spec sweep.json -j 8 -out fleet-out
//	nostop-fleet -spec sweep.json -j 8 -out fleet-out -resume   # skip cached jobs
//	nostop-fleet -workloads logreg -controllers nostop -seeds 1-3 -chaos
//
// Outputs, under -out:
//
//	runs/<hash>.json   one artifact per job, keyed by the job's content hash
//	manifest.json      per-run records in spec order (byte-stable)
//	aggregates.json    per-cell mean/std/95% CI over seeds (byte-stable)
//	metrics.prom       per-worker fleet counters (scheduling-dependent,
//	                   deliberately kept out of the manifest)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nostop/internal/experiments"
	"nostop/internal/fleet"
	"nostop/internal/metrics"
)

func main() {
	var (
		specPath    = flag.String("spec", "", "JSON sweep spec file (overrides the inline grid flags)")
		workloads   = flag.String("workloads", "logreg", "comma-separated workloads (logreg,linreg,wordcount,pageanalyze)")
		controllers = flag.String("controllers", "static,nostop",
			"comma-separated controllers ("+strings.Join(fleet.ControllerNames(), ",")+")")
		seeds   = flag.String("seeds", "1-5", "seed list: comma-separated values and lo-hi ranges, e.g. 1,2,5-8")
		horizon = flag.Duration("horizon", 40*time.Minute, "virtual run duration per job")
		warmup  = flag.Float64("warmup", 0.5, "fraction of each run discarded before measuring")
		chaos   = flag.Bool("chaos", false, "also sweep the scripted chaos fault plan (vs fault-free)")
		j       = flag.Int("j", 0, "worker pool size (0: NumCPU); affects wall time only, never results")
		out     = flag.String("out", "fleet-out", "artifact directory")
		resume  = flag.Bool("resume", false, "skip jobs with a valid cached artifact in -out")
		quiet   = flag.Bool("quiet", false, "suppress per-job progress lines")
		name    = flag.String("name", "", "sweep name recorded in the manifest")
	)
	flag.Parse()

	spec, err := buildSpec(*specPath, *workloads, *controllers, *seeds, *horizon, *warmup, *chaos, *name)
	if err != nil {
		fatal(err)
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	store, err := fleet.NewStore(*out)
	if err != nil {
		fatal(err)
	}
	reg := metrics.NewRegistry()
	start := time.Now()
	opts := fleet.Options{
		Parallelism: *j,
		Store:       store,
		Resume:      *resume,
		Metrics:     reg,
	}
	if !*quiet {
		opts.Progress = func(done, total int, rec *fleet.Record, cached bool) {
			verb := "ran"
			if cached {
				verb = "cached"
			}
			fmt.Fprintf(os.Stderr, "fleet: [%*d/%d] %-6s %v %s (%.1fs)\n",
				len(strconv.Itoa(total)), done, total, verb, rec.Job, rec.Hash[:8],
				time.Since(start).Seconds())
		}
	}

	report, err := fleet.Run(spec, opts)
	if err != nil {
		fatal(err)
	}

	if err := writeOutputs(*out, report, reg); err != nil {
		fatal(err)
	}
	fmt.Printf("nostop-fleet: jobs=%d executed=%d cached=%d j=%d cells=%d elapsed=%.1fs out=%s\n",
		len(report.Manifest.Jobs), report.Executed, report.Cached, *j,
		len(report.Aggregates), time.Since(start).Seconds(), *out)
}

// buildSpec loads the spec file or assembles one from the inline grid flags.
func buildSpec(path, workloads, controllers, seeds string, horizon time.Duration,
	warmup float64, chaos bool, name string) (fleet.Spec, error) {
	var spec fleet.Spec
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return spec, fmt.Errorf("parsing %s: %v", path, err)
		}
	} else {
		seedList, err := fleet.ParseSeeds(seeds)
		if err != nil {
			return spec, err
		}
		spec = fleet.Spec{
			Seeds:       seedList,
			Workloads:   splitList(workloads),
			Controllers: splitList(controllers),
			Horizon:     fleet.Duration(horizon),
			Warmup:      warmup,
		}
		if chaos {
			spec.Plans = []fleet.NamedPlan{
				{},
				{Name: "chaos-scripted", Faults: experiments.ChaosPlan(horizon)},
			}
		}
	}
	if name != "" {
		spec.Name = name
	}
	return spec, nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// writeOutputs publishes manifest, aggregates, and fleet metrics atomically.
func writeOutputs(dir string, report *fleet.Report, reg *metrics.Registry) error {
	manifest, err := report.Manifest.Encode()
	if err != nil {
		return err
	}
	if err := fleet.WriteFileAtomic(filepath.Join(dir, "manifest.json"), manifest); err != nil {
		return err
	}
	aggs, err := fleet.EncodeAggregates(report.Aggregates)
	if err != nil {
		return err
	}
	if err := fleet.WriteFileAtomic(filepath.Join(dir, "aggregates.json"), aggs); err != nil {
		return err
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		return err
	}
	return fleet.WriteFileAtomic(filepath.Join(dir, "metrics.prom"), []byte(prom.String()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nostop-fleet:", err)
	os.Exit(1)
}
