package fleet

import (
	"fmt"

	"nostop/internal/controllers"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/faults"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tenant"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// Observe configures the optional passive sinks and hooks of an observed
// execution. The zero value disables everything, making ExecuteObserved
// behave exactly like Execute: attaching sinks never perturbs a run (the
// PR-3 zero-perturbation guarantee), so the summary produced for a job is
// byte-identical with or without them.
type Observe struct {
	// Metrics, when non-nil, receives the run's full instrument set
	// (engine, broker, controller, fault injector).
	Metrics *metrics.Registry
	// Trace enables a Chrome trace_event tracer on the run's virtual clock.
	Trace bool
	// Attach, when non-nil, runs after the engine has started and the
	// controller (if any) has attached, before the clock runs. It is the
	// hook scenario probes use to add batch-completion listeners. It must
	// be passive: drawing randomness or scheduling events here would break
	// the job-hash determinism contract.
	Attach func(*engine.Engine) error
}

// RunDetail exposes the live objects of an assembled run, for callers that
// need more than the Summary: the scenario harness reads the batch history
// for SLO percentiles and first-violation instants, the registry for
// counter-derived SLOs, and the tracer for span references.
type RunDetail struct {
	Engine     *engine.Engine
	Controller controllers.Controller // nil for the static controller
	Injector   *faults.Injector       // nil for a fault-free run
	Tracer     *tracing.Tracer        // nil unless Observe.Trace was set
}

// Setup describes one single-app run for Assemble. Each caller keeps its
// own trace and seed derivation; Assemble only fixes the order in which the
// run is built.
type Setup struct {
	Workload workload.Workload
	Trace    ratetrace.Trace
	// Seed roots the run and must be non-nil: the engine draws
	// Seed.Split("engine").
	Seed *rng.Stream
	// ControllerSeed is the stream the controller factory splits its own
	// stream from; nil means Seed.
	ControllerSeed *rng.Stream
	// Initial is the starting configuration; zero means
	// engine.DefaultConfig().
	Initial engine.Config
	// Bounds is the engine's feasible region; zero means
	// engine.DefaultBounds(). Ignored when Space is set.
	Bounds engine.Bounds
	// Space, when non-nil, is authoritative on the feasible region: the
	// engine takes its bounds, Initial is clamped into them, and every
	// controller — space-aware or not — tunes inside the same box.
	Space *core.ConfigSpace
	// Plan is the fault schedule; empty means a fault-free run.
	Plan faults.Plan
	// Controller is a registry name.
	Controller string
	// NoStop edits the nostop controller's options (see
	// controllers.Build.NoStop).
	NoStop func(*core.Options)
}

// Assemble builds one single-app run in the order every entry point
// shares — fresh clock, engine, faults, Start, controller, attach hook —
// and returns its live state with the clock at zero; the caller advances
// it (det.Engine.Clock()). An unknown controller name fails before
// anything is built.
func Assemble(s Setup, obs Observe) (*RunDetail, error) {
	info, ok := controllers.Lookup(s.Controller)
	if !ok {
		return nil, controllers.UnknownError(s.Controller)
	}
	clock := sim.NewClock()
	det := &RunDetail{}
	if obs.Trace {
		det.Tracer = tracing.New(clock, 0)
	}
	opts := engine.Options{
		Workload: s.Workload,
		Trace:    s.Trace,
		Seed:     s.Seed.Split("engine"),
		Initial:  s.Initial,
		Bounds:   s.Bounds,
		Metrics:  obs.Metrics,
		Tracer:   det.Tracer,
	}
	if s.Space != nil {
		if opts.Initial == (engine.Config{}) {
			opts.Initial = engine.DefaultConfig()
		}
		opts.Bounds = s.Space.EngineBounds()
		opts.Initial = opts.Bounds.Clamp(opts.Initial)
	}
	eng, err := engine.New(clock, opts)
	if err != nil {
		return nil, err
	}
	det.Engine = eng
	if len(s.Plan) > 0 {
		if det.Injector, err = faults.Attach(eng, s.Plan); err != nil {
			return nil, err
		}
		det.Injector.Observe(obs.Metrics, det.Tracer)
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	seed := s.ControllerSeed
	if seed == nil {
		seed = s.Seed
	}
	det.Controller, err = info.Attach(eng, controllers.Build{
		Seed: seed, Space: s.Space, Metrics: obs.Metrics, Tracer: det.Tracer, NoStop: s.NoStop,
	})
	if err != nil {
		return nil, err
	}
	if obs.Attach != nil {
		if err := obs.Attach(eng); err != nil {
			return nil, err
		}
	}
	return det, nil
}

// ExecuteObserved runs one job to completion like Execute, with optional
// metric/trace sinks and an attach hook, and returns the run's live state
// alongside the summary. The job's seed path and event timeline are
// identical to Execute's — observability is passive — so a job's content
// hash remains a complete key for its results.
func ExecuteObserved(job Job, obs Observe) (Summary, *RunDetail, error) {
	if job.Mix != nil {
		return executeMix(job, obs)
	}
	wl, err := workload.New(job.Workload)
	if err != nil {
		return Summary{}, nil, err
	}
	seed := rng.New(job.Seed).Split(fmt.Sprintf("fleet/%s/%s/%s/%s",
		job.Workload, job.Controller, job.Trace.label(), job.Plan.label()))

	min, max := wl.RateBand()
	trc := job.Trace.withDefaults()
	if trc.Min != 0 || trc.Max != 0 {
		min, max = trc.Min, trc.Max
	}
	initial := engine.DefaultConfig()
	if job.Initial.Interval != 0 {
		initial.BatchInterval = job.Initial.Interval.D()
	}
	if job.Initial.Executors != 0 {
		initial.Executors = job.Initial.Executors
	}

	det, err := Assemble(Setup{
		Workload:   wl,
		Trace:      ratetrace.NewUniformBand(min, max, trc.Period.D(), seed.Split("trace")),
		Seed:       seed,
		Initial:    initial,
		Space:      job.Space,
		Plan:       job.Plan.Faults,
		Controller: job.Controller,
	}, obs)
	if err != nil {
		return Summary{}, nil, err
	}
	det.Engine.Clock().RunUntil(sim.Time(job.Horizon))
	return summarize(job, det), det, nil
}

// executeMix runs a multi-tenant job through tenant.Run and folds the
// report into a Summary: cluster-wide aggregates in the top-level fields
// (so cell aggregation and manifest rendering work unchanged) and the
// per-tenant breakdown in Summary.Tenants. The seed path and report are a
// pure function of the Job, exactly like the single-app path, so job
// hashes remain complete artifact-cache keys.
func executeMix(job Job, obs Observe) (Summary, *RunDetail, error) {
	rep, det, err := tenant.RunDetailed(*job.Mix, job.Seed, tenant.Observe{
		Metrics: obs.Metrics,
		Trace:   obs.Trace,
	})
	if err != nil {
		return Summary{}, nil, err
	}
	s := Summary{
		Batches:      rep.Cluster.TotalBatches,
		TotalRecords: rep.Cluster.TotalRecords,
		Tenants:      rep.Tenants,
	}
	var e2e []float64
	for _, t := range rep.Tenants {
		s.SteadyBatches += t.SteadyBatches
		s.Reconfigs += t.Reconfigs
		s.FailedBatches += t.FailedBatches
		s.Redelivered += t.Redelivered
		if t.SteadyBatches > 0 {
			// Weight each tenant's mean by its steady batch count so the
			// cluster-wide mean matches a flat per-batch average; the dist
			// percentiles come from the per-tenant means (N = tenant count),
			// a coarse but deterministic cross-tenant spread measure.
			e2e = append(e2e, t.DelayMeanSec)
			s.ProcMean += t.ProcMeanSec * float64(t.SteadyBatches)
			s.SchedMean += t.SchedMeanSec * float64(t.SteadyBatches)
		}
	}
	if s.SteadyBatches > 0 {
		s.ProcMean /= float64(s.SteadyBatches)
		s.SchedMean /= float64(s.SteadyBatches)
	}
	s.E2E = distOf(e2e)
	s.E2E.Mean = rep.Cluster.MeanDelaySec // batch-weighted, not tenant-weighted
	return s, &RunDetail{Tracer: det.Tracer}, nil
}
