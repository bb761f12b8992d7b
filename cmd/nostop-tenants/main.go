// Command nostop-tenants runs a multi-tenant cluster simulation: N
// streaming apps — each with its own topic, workload, trace, and per-app
// controller, any registered name — sharing one cluster, with the
// cluster-level allocator arbitrating executor grants. It prints a
// per-tenant + cluster-wide report; same mix and seed always produce the
// same bytes.
//
// A mix comes either from a JSON spec file (-mix, see docs/TENANCY.md for
// the format) or from the synthetic generator:
//
//	nostop-tenants -mix mix.json -seed 7
//	nostop-tenants -tenants 32 -nodes 1000 -cores 4 -allocator priority
//	nostop-tenants -tenants 8 -json > report.json
//	nostop-tenants -tenants 4 -metrics metrics.prom -out report.json
//
// Exit status: 0 on success, 1 on any error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nostop/internal/fleet"
	"nostop/internal/metrics"
	"nostop/internal/tenant"
)

func main() {
	var (
		mixPath    = flag.String("mix", "", "mix spec JSON file (overrides the synthetic flags)")
		tenants    = flag.Int("tenants", 8, "synthetic mix: tenant count")
		nodes      = flag.Int("nodes", 64, "synthetic mix: worker nodes")
		cores      = flag.Int("cores", 4, "synthetic mix: cores per worker")
		partitions = flag.Int("partitions", 0, "partitions per topic (0: mix default)")
		allocator  = flag.String("allocator", tenant.AllocFairShare, "allocator policy: priority, fair-share, or static")
		horizon    = flag.Duration("horizon", 30*time.Minute, "simulated run length")
		seed       = flag.Uint64("seed", 1, "root seed")
		jsonOut    = flag.Bool("json", false, "print the JSON report instead of the human summary")
		out        = flag.String("out", "", "also write the JSON report to this file (atomic)")
		promOut    = flag.String("metrics", "", "write the final Prometheus metrics snapshot to this file")
	)
	flag.Parse()

	mix, err := loadMix(*mixPath, *tenants, *nodes, *cores, *allocator, *horizon)
	if err != nil {
		fatal(err)
	}
	if *partitions > 0 {
		mix.Partitions = *partitions
	}

	var obs tenant.Observe
	var reg *metrics.Registry
	if *promOut != "" {
		reg = metrics.NewRegistry()
		obs.Metrics = reg
	}

	rep, err := tenant.Run(mix, *seed, obs)
	if err != nil {
		fatal(err)
	}
	b, err := rep.Encode()
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		os.Stdout.Write(b)
	} else {
		render(rep)
	}
	if *out != "" {
		if err := fleet.WriteFileAtomic(*out, b); err != nil {
			fatal(err)
		}
	}
	if *promOut != "" {
		f, err := os.Create(*promOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func loadMix(path string, tenants, nodes, cores int, allocator string, horizon time.Duration) (tenant.MixSpec, error) {
	if path == "" {
		return tenant.Synthetic(tenants, nodes, cores, allocator, tenant.Duration(horizon)), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return tenant.MixSpec{}, err
	}
	defer f.Close()
	var mix tenant.MixSpec
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mix); err != nil {
		return tenant.MixSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return mix, nil
}

func render(rep *tenant.Report) {
	fmt.Printf("mix %s · seed %d · %d nodes × %d cores · %d partitions/topic · allocator %s\n",
		rep.Mix, rep.Seed, rep.Nodes, rep.Cores, rep.Partitions, rep.Allocator)
	fmt.Printf("horizon %s (warmup %s) · %d tenants\n\n", rep.Horizon, rep.Warmup, len(rep.Tenants))
	fmt.Printf("%-8s %-11s %-7s %4s %6s  %8s %9s %9s  %5s/%-5s %4s\n",
		"TENANT", "WORKLOAD", "CTL", "PRI", "BATCH", "RECORDS", "DELAYμ(s)", "P95(s)", "GRANT", "WANT", "PRE")
	for _, t := range rep.Tenants {
		fmt.Printf("%-8s %-11s %-7s %4d %6d  %8d %9.2f %9.2f  %5d/%-5d %4d\n",
			t.Name, t.Workload, t.Controller, t.Priority, t.Batches,
			t.Records, t.DelayMeanSec, t.DelayP95Sec, t.Grant, t.Demand, t.Preemptions)
	}
	c := rep.Cluster
	fmt.Printf("\ncluster: %d batches · %d records · mean delay %.2fs · cores used %d/%d\n",
		c.TotalBatches, c.TotalRecords, c.MeanDelaySec, c.UsedCores, c.WorkerCores)
	fmt.Printf("alloc:   %d rounds · %d regrants · %d preemptions (%s)\n",
		rep.Alloc.Rounds, rep.Alloc.Regrants, rep.Alloc.Preemptions, rep.Alloc.Policy)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nostop-tenants: %v\n", err)
	os.Exit(1)
}
