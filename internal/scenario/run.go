package scenario

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"nostop/internal/engine"
	"nostop/internal/experiments"
	"nostop/internal/faults"
	"nostop/internal/fleet"
	"nostop/internal/metrics"
	"nostop/internal/sim"
	"nostop/internal/tenant"
)

// Options configure a scenario run. Like the fleet, parallelism changes
// wall time only — replication results merge in seed order, so the report
// bytes never depend on the worker count.
type Options struct {
	// Parallelism bounds the worker pool (0: NumCPU).
	Parallelism int
	// SeedLimit truncates the seed list to its first N entries (0: all).
	// CI smoke mode runs every checked-in spec with SeedLimit 1: same
	// code path, one replication.
	SeedLimit int
}

// Artifact is one deterministic per-replication output file the CLI writes
// next to the report: the Chrome trace and Prometheus metrics snapshot
// every first-violation pointer and CI dashboard refers back to.
type Artifact struct {
	Name string
	Data []byte
}

// Result is a completed scenario run: the verdict report plus the
// replication artifacts.
type Result struct {
	Report    *Report
	Artifacts []Artifact
}

// runObs is the evaluated view of one replication: a snapshot of the batch
// history, the counter values, and the probe onsets, detached from the
// live engine so evaluation never mutates run state.
type runObs struct {
	seed      uint64
	history   []engine.BatchStats
	plan      faults.Plan
	horizon   sim.Time
	warmup    float64
	counters  map[string]float64
	onsets    map[string]engine.BatchStats
	traceFile string

	// tenants holds the per-tenant batch histories of a tenancy run; the
	// merged, sim-time-ordered union lives in history.
	tenants map[string][]engine.BatchStats
	views   map[string]*runObs

	steadyCache []engine.BatchStats
}

// view returns the evaluated view for one tenant: the same replication with
// history narrowed to that tenant's batches, so every sample/violation
// function in the metric vocabulary works unchanged on tenant-scoped SLOs.
// Views share the counters, onsets, and trace file; each caches its own
// steady series. An empty name returns the cluster-wide view.
func (r *runObs) view(tenant string) *runObs {
	if tenant == "" {
		return r
	}
	if v, ok := r.views[tenant]; ok {
		return v
	}
	v := &runObs{
		seed:      r.seed,
		history:   r.tenants[tenant],
		plan:      r.plan,
		horizon:   r.horizon,
		warmup:    r.warmup,
		counters:  r.counters,
		onsets:    r.onsets,
		traceFile: r.traceFile,
	}
	if r.views == nil {
		r.views = map[string]*runObs{}
	}
	r.views[tenant] = v
	return v
}

// steady returns the post-warmup history with reconfiguration batches
// excluded — the same series the fleet Summary measures.
func (r *runObs) steady() []engine.BatchStats {
	if r.steadyCache != nil {
		return r.steadyCache
	}
	start := int(float64(len(r.history)) * r.warmup)
	out := make([]engine.BatchStats, 0, len(r.history)-start)
	for _, b := range r.history[start:] {
		if b.FirstAfterReconfig {
			continue
		}
		out = append(out, b)
	}
	r.steadyCache = out
	return out
}

// steadySeconds projects the steady series through field.
func (r *runObs) steadySeconds(field func(engine.BatchStats) float64) []float64 {
	steady := r.steady()
	out := make([]float64, len(steady))
	for i, b := range steady {
		out[i] = field(b)
	}
	return out
}

// counter returns the snapshotted end-of-run value of a registry counter.
func (r *runObs) counter(name string) float64 { return r.counters[name] }

// preFaultSteady is the mean clean-batch e2e delay in the pre-fault window
// [0.15·horizon, plan start) — the chaos harness's baseline for recovery.
// NaN when no clean batch completed in the window.
func (r *runObs) preFaultSteady() float64 {
	from, to := sim.Time(float64(r.horizon)*0.15), r.plan.Start()
	if from >= to {
		from = to / 2
	}
	return experiments.SteadyE2E(r.history, from, to)
}

// Run executes the scenario — one observed fleet job per seed — and
// evaluates every SLO into a verdict report. The report and artifacts are
// a pure function of the (normalized, possibly seed-truncated) spec.
func Run(spec Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	smoke := false
	if opts.SeedLimit > 0 && len(spec.Seeds) > opts.SeedLimit {
		spec.Seeds = spec.Seeds[:opts.SeedLimit]
		smoke = true
	}

	slos := make([]SLO, len(spec.SLOs))
	for i, text := range spec.SLOs {
		slo, err := ParseSLO(text)
		if err != nil {
			return nil, err
		}
		slos[i] = slo
	}

	if spec.Tenancy != nil {
		return runTenancy(spec, slos, smoke, opts)
	}

	jobs, err := spec.fleetSpec().Expand()
	if err != nil {
		return nil, err
	}
	if len(jobs) != len(spec.Seeds) {
		return nil, fmt.Errorf("scenario: expanded %d jobs for %d seeds (spec is not a single cell)", len(jobs), len(spec.Seeds))
	}

	runs := make([]*runObs, len(jobs))
	artifacts := make([][]Artifact, len(jobs))
	if err := fleet.ParallelFor(len(jobs), opts.Parallelism, func(i int) error {
		run, arts, err := executeOne(jobs[i])
		if err != nil {
			return fmt.Errorf("scenario: seed %d: %v", jobs[i].Seed, err)
		}
		runs[i], artifacts[i] = run, arts
		return nil
	}); err != nil {
		return nil, err
	}

	report := &Report{
		Version:      reportVersion,
		Spec:         spec,
		Smoke:        smoke,
		Replications: len(runs),
	}
	for _, slo := range slos {
		report.SLOs = append(report.SLOs, evaluate(slo, runs))
	}
	report.Verdict = overallVerdict(report.SLOs)
	if spec.Expect != "" {
		match := report.Verdict == spec.Expect
		report.ExpectMatch = &match
	}

	result := &Result{Report: report}
	for _, arts := range artifacts {
		result.Artifacts = append(result.Artifacts, arts...)
	}
	return result, nil
}

// executeOne runs one replication with full observability and snapshots
// everything evaluation and the artifact writer need.
func executeOne(job fleet.Job) (*runObs, []Artifact, error) {
	reg := metrics.NewRegistry()
	run := &runObs{
		seed:      job.Seed,
		plan:      job.Plan.Faults,
		horizon:   sim.Time(job.Horizon),
		warmup:    job.Warmup,
		counters:  map[string]float64{},
		onsets:    map[string]engine.BatchStats{},
		traceFile: fmt.Sprintf("trace-seed%d.json", job.Seed),
	}

	obs := fleet.Observe{
		Metrics: reg,
		Trace:   true,
		Attach: func(eng *engine.Engine) error {
			// The probe watches, per batch completion, whether each
			// violation counter has gone nonzero yet, pinning the onset
			// to a concrete batch. Reads only — attaching it never
			// perturbs the run (PR-3 zero-perturbation guarantee).
			type watch struct {
				key string
				c   *metrics.Counter
			}
			watches := []watch{
				{onsetShed, reg.Counter(counterDropped, "")},
				{onsetFailed, reg.Counter(counterFailed, "")},
				{onsetRedelivered, reg.Counter(counterRedelivered, "")},
			}
			eng.AddListener(engine.ListenerFunc(func(b engine.BatchStats) {
				for _, w := range watches {
					if _, seen := run.onsets[w.key]; !seen && w.c.Value() > 0 {
						run.onsets[w.key] = b
					}
				}
			}))
			return nil
		},
	}

	_, detail, err := fleet.ExecuteObserved(job, obs)
	if err != nil {
		return nil, nil, err
	}

	run.history = detail.Engine.History()
	run.counters[counterDropped] = reg.Counter(counterDropped, "").Value()
	run.counters[counterProduced] = reg.Counter(counterProduced, "").Value()
	run.counters[counterFailed] = reg.Counter(counterFailed, "").Value()
	run.counters[counterRedelivered] = reg.Counter(counterRedelivered, "").Value()

	var trace bytes.Buffer
	if err := detail.Tracer.WriteJSON(&trace); err != nil {
		return nil, nil, fmt.Errorf("encoding trace: %v", err)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		return nil, nil, fmt.Errorf("encoding metrics: %v", err)
	}
	arts := []Artifact{
		{Name: run.traceFile, Data: trace.Bytes()},
		{Name: fmt.Sprintf("metrics-seed%d.prom", job.Seed), Data: []byte(prom.String())},
	}
	return run, arts, nil
}

// runTenancy executes a tenancy-mode scenario: one multi-tenant replication
// per seed under the primary allocator and — when a contrast allocator is
// declared — a second replication set under the contrast. The tenant seed
// paths do not encode the allocator, so a primary run and its contrast twin
// draw identical randomness: the comparison is exactly paired, and any SLO
// difference is the allocator's doing.
func runTenancy(spec Spec, slos []SLO, smoke bool, opts Options) (*Result, error) {
	primary, err := spec.tenancyMix(spec.Tenancy.Mix.Allocator)
	if err != nil {
		return nil, err
	}
	var contrast tenant.MixSpec
	n := len(spec.Seeds)
	total := n
	if spec.Tenancy.ContrastAllocator != "" {
		if contrast, err = spec.tenancyMix(spec.Tenancy.ContrastAllocator); err != nil {
			return nil, err
		}
		total = 2 * n
	}

	runs := make([]*runObs, total)
	artifacts := make([][]Artifact, total)
	if err := fleet.ParallelFor(total, opts.Parallelism, func(i int) error {
		mix, label := primary, ""
		if i >= n {
			mix, label = contrast, "contrast-"
		}
		seed := spec.Seeds[i%n]
		run, arts, err := executeTenancy(mix, seed, spec.Warmup, label)
		if err != nil {
			return fmt.Errorf("scenario: %sseed %d: %v", label, seed, err)
		}
		runs[i], artifacts[i] = run, arts
		return nil
	}); err != nil {
		return nil, err
	}

	report := &Report{
		Version:      reportVersion,
		Spec:         spec,
		Smoke:        smoke,
		Replications: n,
	}
	for _, slo := range slos {
		report.SLOs = append(report.SLOs, evaluate(slo, runs[:n]))
	}
	report.Verdict = overallVerdict(report.SLOs)
	if total > n {
		c := &ContrastReport{Allocator: spec.Tenancy.ContrastAllocator}
		for _, slo := range slos {
			c.SLOs = append(c.SLOs, evaluate(slo, runs[n:]))
		}
		c.Verdict = overallVerdict(c.SLOs)
		report.Contrast = c
		report.Verdict = combineContrast(report.Verdict, c.Verdict)
	}
	if spec.Expect != "" {
		match := report.Verdict == spec.Expect
		report.ExpectMatch = &match
	}

	result := &Result{Report: report}
	for _, arts := range artifacts {
		result.Artifacts = append(result.Artifacts, arts...)
	}
	return result, nil
}

// executeTenancy runs one multi-tenant replication with full observability:
// per-tenant batch histories (for tenant-scoped SLOs), the merged
// sim-time-ordered history (for cluster-wide ones), counter snapshots, and
// onset probes, plus the trace and metrics artifacts. label distinguishes
// contrast artifacts from primary ones.
func executeTenancy(mix tenant.MixSpec, seed uint64, warmup float64, label string) (*runObs, []Artifact, error) {
	reg := metrics.NewRegistry()
	run := &runObs{
		seed:      seed,
		horizon:   sim.Time(mix.Horizon),
		warmup:    warmup,
		counters:  map[string]float64{},
		onsets:    map[string]engine.BatchStats{},
		tenants:   map[string][]engine.BatchStats{},
		traceFile: fmt.Sprintf("trace-%sseed%d.json", label, seed),
	}

	// The onset probe mirrors the single-app Attach hook: per batch
	// completion, pin the first batch at which each violation counter has
	// gone nonzero. Reads only — passive by the PR-3 guarantee.
	type watch struct {
		key string
		c   *metrics.Counter
	}
	watches := []watch{
		{onsetShed, reg.Counter(counterDropped, "")},
		{onsetFailed, reg.Counter(counterFailed, "")},
		{onsetRedelivered, reg.Counter(counterRedelivered, "")},
	}
	_, detail, err := tenant.RunDetailed(mix, seed, tenant.Observe{
		Metrics: reg,
		Trace:   true,
		OnBatch: func(b engine.BatchStats) {
			for _, w := range watches {
				if _, seen := run.onsets[w.key]; !seen && w.c.Value() > 0 {
					run.onsets[w.key] = b
				}
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}

	for _, name := range mix.TenantNames() {
		hist := detail.Engines[name].History()
		run.tenants[name] = hist
		run.history = append(run.history, hist...)
	}
	// Merge in simulation order with a total tie-break (tenant, then batch
	// ID) so the cluster-wide history is deterministic.
	sort.SliceStable(run.history, func(i, j int) bool {
		a, b := run.history[i], run.history[j]
		if a.DoneAt != b.DoneAt {
			return a.DoneAt < b.DoneAt
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.ID < b.ID
	})
	run.counters[counterDropped] = reg.Counter(counterDropped, "").Value()
	run.counters[counterProduced] = reg.Counter(counterProduced, "").Value()
	run.counters[counterFailed] = reg.Counter(counterFailed, "").Value()
	run.counters[counterRedelivered] = reg.Counter(counterRedelivered, "").Value()

	var trace bytes.Buffer
	if err := detail.Tracer.WriteJSON(&trace); err != nil {
		return nil, nil, fmt.Errorf("encoding trace: %v", err)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		return nil, nil, fmt.Errorf("encoding metrics: %v", err)
	}
	arts := []Artifact{
		{Name: run.traceFile, Data: trace.Bytes()},
		{Name: fmt.Sprintf("metrics-%sseed%d.prom", label, seed), Data: []byte(prom.String())},
	}
	return run, arts, nil
}
