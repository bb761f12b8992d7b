package fleet

import (
	"nostop/internal/core"
	"nostop/internal/stats"
	"nostop/internal/tenant"
)

// Dist summarizes a sample of per-batch delays.
type Dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// distOf summarizes xs into a Dist.
func distOf(xs []float64) Dist {
	s := stats.Summarize(xs)
	return Dist{N: s.N, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
}

// Summary is the per-run result stored in artifacts and manifests: steady-
// state delay distributions plus the engine's resilience accounting. Every
// field is a pure function of the Job — no wall-clock or worker-dependent
// value may ever be added here, or parallelism invariance breaks.
type Summary struct {
	Batches        int     `json:"batches"`
	SteadyBatches  int     `json:"steady_batches"`
	E2E            Dist    `json:"e2e_seconds"`
	ProcMean       float64 `json:"proc_mean_seconds"`
	SchedMean      float64 `json:"sched_mean_seconds"`
	Reconfigs      int     `json:"reconfigs"`
	ConfigSteps    int     `json:"config_steps"`
	FinalInterval  float64 `json:"final_interval_seconds"`
	FinalExecutors int     `json:"final_executors"`
	Phase          string  `json:"phase,omitempty"`
	FailedBatches  int64   `json:"failed_batches"`
	TaskRetries    int     `json:"task_retries"`
	Redelivered    int64   `json:"redelivered"`
	FailedRecords  int64   `json:"failed_records"`
	TotalRecords   int64   `json:"total_records"`
	FaultsInjected int     `json:"faults_injected,omitempty"`
	// Tenants holds the per-tenant breakdown of a multi-tenant (Mix) job;
	// the top-level fields then carry the cluster-wide aggregate so cell
	// aggregation works unchanged. Empty for single-app jobs (omitempty
	// keeps their artifact bytes identical to pre-tenant releases).
	Tenants []tenant.TenantReport `json:"tenants,omitempty"`
}

// Execute runs one job to completion and summarizes it. The run is built
// from scratch — own clock, own engine, own controller — so concurrent
// Execute calls share nothing. The job's random streams all derive from a
// path that encodes the job axes, so distinct grid points draw independent
// randomness even under the same seed. Execution itself lives in
// ExecuteObserved; Execute is the sink-free fast path the sweep runner uses.
func Execute(job Job) (Summary, error) {
	sum, _, err := ExecuteObserved(job, Observe{})
	return sum, err
}

// summarize reduces a finished run to its Summary.
func summarize(job Job, det *RunDetail) Summary {
	eng := det.Engine
	history := eng.History()
	start := int(float64(len(history)) * job.Warmup)
	var e2e, proc, sched []float64
	for _, b := range history[start:] {
		if b.FirstAfterReconfig {
			continue
		}
		e2e = append(e2e, b.EndToEndDelay.Seconds())
		proc = append(proc, b.ProcessingTime.Seconds())
		sched = append(sched, b.SchedulingDelay.Seconds())
	}

	s := Summary{
		Batches:        len(history),
		SteadyBatches:  len(e2e),
		E2E:            distOf(e2e),
		ProcMean:       stats.Mean(proc),
		SchedMean:      stats.Mean(sched),
		Reconfigs:      eng.Reconfigs(),
		FinalInterval:  eng.Config().BatchInterval.Seconds(),
		FinalExecutors: eng.Config().Executors,
		FailedBatches:  eng.FailedBatches(),
		TaskRetries:    eng.TaskRetries(),
		Redelivered:    eng.Redelivered(),
		FailedRecords:  eng.FailedRecords(),
		TotalRecords:   eng.TotalRecords(),
	}
	if ctl, ok := det.Controller.(*core.Controller); ok {
		s.ConfigSteps = ctl.ConfigureSteps()
		s.Phase = ctl.Phase().String()
	}
	if det.Injector != nil {
		s.FaultsInjected = det.Injector.Injected()
	}
	return s
}
