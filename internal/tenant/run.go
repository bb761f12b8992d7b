package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"nostop/internal/broker"
	"nostop/internal/cluster"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// Observe configures the optional passive sinks of a tenant run. The zero
// value disables everything; attaching sinks never perturbs the run.
type Observe struct {
	// Metrics receives the nostop_tenant_* family plus every per-engine
	// instrument set.
	Metrics *metrics.Registry
	// Trace enables a Chrome trace_event tracer on the run's virtual
	// clock, exposed through Detail.Tracer.
	Trace bool
	// TraceMaxEvents bounds the tracer (0: tracing.DefaultMaxEvents).
	TraceMaxEvents int
	// OnBatch, when non-nil, is called for every completed batch of every
	// tenant (after the metric family). It must be passive.
	OnBatch func(engine.BatchStats)
}

// Detail exposes the live objects of a completed run for callers that need
// more than the Report: the scenario harness reads per-tenant batch
// histories for SLO percentiles and the tracer for span references.
type Detail struct {
	// Engines maps tenant name to its engine.
	Engines map[string]*engine.Engine
	// Gates maps tenant name to its allocator gate.
	Gates map[string]*Gate
	// Tracer is non-nil iff Observe.Trace was set.
	Tracer *tracing.Tracer
}

// TenantReport summarizes one tenant's run.
type TenantReport struct {
	Name       string  `json:"name"`
	Workload   string  `json:"workload"`
	Controller string  `json:"controller"`
	SLOClass   string  `json:"slo_class,omitempty"`
	Priority   int     `json:"priority"`
	Weight     float64 `json:"weight"`
	Trace      string  `json:"trace"`

	Batches       int   `json:"batches"`
	SteadyBatches int   `json:"steady_batches"`
	Records       int64 `json:"records"`

	DelayMeanSec float64 `json:"delay_mean_sec"`
	DelayP95Sec  float64 `json:"delay_p95_sec"`
	DelayMaxSec  float64 `json:"delay_max_sec"`
	ProcMeanSec  float64 `json:"proc_mean_sec"`
	SchedMeanSec float64 `json:"sched_mean_sec"`

	Reconfigs      int    `json:"reconfigs"`
	FinalInterval  string `json:"final_interval"`
	FinalExecutors int    `json:"final_executors"`
	LiveExecutors  int    `json:"live_executors"`
	Demand         int    `json:"demand"`
	Grant          int    `json:"grant"`
	Preemptions    int    `json:"preemptions"`

	Lag           int64 `json:"lag"`
	CommittedLag  int64 `json:"committed_lag"`
	Redelivered   int64 `json:"redelivered"`
	FailedBatches int64 `json:"failed_batches"`
	ShedEvents    int   `json:"shed_events"`
}

// ClusterReport aggregates the shared cluster's view of the run.
type ClusterReport struct {
	Nodes        int     `json:"nodes"`
	WorkerCores  int     `json:"worker_cores"`
	UsedCores    int     `json:"used_cores"`
	FreeCores    int     `json:"free_cores"`
	TotalBatches int     `json:"total_batches"`
	TotalRecords int64   `json:"total_records"`
	MeanDelaySec float64 `json:"mean_delay_sec"`
}

// AllocReport summarizes the allocator's activity.
type AllocReport struct {
	Policy      string `json:"policy"`
	Rounds      int    `json:"rounds"`
	Preemptions int    `json:"preemptions"`
	Regrants    int    `json:"regrants"`
}

// Report is the full outcome of a multi-tenant run. Encode renders it
// byte-stably, so same-seed runs are comparable with cmp.
type Report struct {
	Mix        string         `json:"mix"`
	Seed       uint64         `json:"seed"`
	Allocator  string         `json:"allocator"`
	Nodes      int            `json:"nodes"`
	Cores      int            `json:"cores_per_node"`
	Partitions int            `json:"partitions"`
	Horizon    string         `json:"horizon"`
	Warmup     string         `json:"warmup"`
	Tenants    []TenantReport `json:"tenants"`
	Cluster    ClusterReport  `json:"cluster"`
	Alloc      AllocReport    `json:"alloc"`
}

// Encode renders the report as stable, indented JSON with a trailing
// newline.
func (r *Report) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runTenant is the live state of one tenant during a run.
type runTenant struct {
	spec        TenantSpec
	gate        *Gate
	ctl         *core.Controller
	trace       ratetrace.Trace
	preemptions int
}

// Run executes a full multi-tenant simulation: one shared cluster and
// broker bus, one engine + controller per tenant, and the allocator
// reconciling grants every ReconcileEvery on the shared sim clock. The
// returned report is a pure function of (mix, seed).
func Run(mix MixSpec, seed uint64, obs Observe) (*Report, error) {
	rep, _, err := RunDetailed(mix, seed, obs)
	return rep, err
}

// RunDetailed is Run exposing the live post-run state alongside the report.
func RunDetailed(mix MixSpec, seed uint64, obs Observe) (*Report, *Detail, error) {
	m, err := mix.Validate()
	if err != nil {
		return nil, nil, err
	}
	clock := sim.NewClock()
	var tracer *tracing.Tracer
	if obs.Trace {
		tracer = tracing.New(clock, obs.TraceMaxEvents)
	}
	cl := cluster.Homogeneous(m.Nodes, m.CoresPerNode)
	capacity := cl.TotalWorkerCores()

	var nodeIDs []int
	for _, n := range cl.Nodes() {
		nodeIDs = append(nodeIDs, n.ID)
	}
	bus, err := broker.NewBus(nodeIDs)
	if err != nil {
		return nil, nil, err
	}

	fam := NewMetrics(obs.Metrics, m.TenantNames())

	// Initial grants come from the allocator before any engine exists:
	// engine.New allocates its Initial.Executors eagerly, so under scarcity
	// the initial demands must already be arbitrated or construction fails.
	demands := make([]demand, len(m.Tenants))
	for i, t := range m.Tenants {
		demands[i] = demand{name: t.Name, priority: t.Priority, weight: t.Weight, want: t.InitialExecutors}
	}
	grants := allocate(m.Allocator, demands, capacity)

	root := rng.New(seed)
	tenants := make([]*runTenant, len(m.Tenants))
	for i, spec := range m.Tenants {
		ts := root.Split("tenant/" + spec.Name)
		wl, err := workload.New(spec.Workload)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %q: %w", spec.Name, err)
		}
		trace, err := spec.Trace.Build(ts.Split("trace"))
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %q: %w", spec.Name, err)
		}
		initial := engine.Config{
			BatchInterval: spec.BatchInterval.D(),
			Executors:     grants[i],
		}
		maxExec := spec.MaxExecutors
		if maxExec > capacity {
			maxExec = capacity
		}
		eng, err := engine.New(clock, engine.Options{
			Workload:   wl,
			Trace:      trace,
			Cluster:    cl,
			Bus:        bus,
			TopicName:  spec.Name,
			Tenant:     spec.Name,
			Partitions: m.Partitions,
			Seed:       ts.Split("engine"),
			Initial:    initial,
			Bounds: engine.Bounds{
				MinInterval: 1 * time.Second, MaxInterval: 40 * time.Second,
				MinExecutors: 1, MaxExecutors: maxExec,
			},
			Metrics: obs.Metrics,
			Tracer:  tracer,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %q: %w", spec.Name, err)
		}
		gate := NewGate(eng, grants[i])
		gate.demand = spec.InitialExecutors
		rt := &runTenant{spec: spec, gate: gate, trace: trace}
		eng.AddListener(engine.ListenerFunc(func(bs engine.BatchStats) {
			fam.OnBatch(bs)
			if obs.OnBatch != nil {
				obs.OnBatch(bs)
			}
		}))
		if err := eng.Start(); err != nil {
			return nil, nil, fmt.Errorf("tenant %q: %w", spec.Name, err)
		}
		if spec.Controller == "nostop" {
			ctl, err := core.New(gate, core.Options{
				Initial: initial,
				Seed:    ts.Split("controller"),
				Metrics: obs.Metrics,
				Tracer:  tracer,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("tenant %q: %w", spec.Name, err)
			}
			if err := ctl.Attach(); err != nil {
				return nil, nil, fmt.Errorf("tenant %q: %w", spec.Name, err)
			}
			rt.ctl = ctl
		}
		tenants[i] = rt
	}

	// The reconcile loop: gather standing demands in canonical (name)
	// order, recompute grants, push them through the gates. Shrinks free
	// cores at the victims' next batch boundaries; EnsureLiveExecutors in
	// setGrant lets beneficiaries claim them over subsequent rounds, so the
	// vector converges within a few reconcile periods of any demand shift.
	alloc := AllocReport{Policy: m.Allocator}
	var reconcile func()
	reconcile = func() {
		alloc.Rounds++
		for i, rt := range tenants {
			demands[i].want = rt.gate.Demand()
			if demands[i].want < 1 {
				demands[i].want = 1
			}
		}
		next := allocate(m.Allocator, demands, capacity)
		for i, rt := range tenants {
			if next[i] != rt.gate.Grant() {
				alloc.Regrants++
			}
			preempted := rt.gate.setGrant(next[i])
			if preempted {
				alloc.Preemptions++
				rt.preemptions++
			}
			fam.OnGrant(rt.spec.Name, rt.gate.Demand(), next[i], preempted)
		}
		clock.After(m.ReconcileEvery.D(), reconcile)
	}
	clock.After(m.ReconcileEvery.D(), reconcile)

	clock.RunUntil(sim.Time(m.Horizon.D()))

	// Reports iterate the canonical tenant order; all floats derive from
	// the deterministic batch history, so Encode is byte-stable per seed.
	rep := &Report{
		Mix:        m.Name,
		Seed:       seed,
		Allocator:  m.Allocator,
		Nodes:      m.Nodes,
		Cores:      m.CoresPerNode,
		Partitions: m.Partitions,
		Horizon:    m.Horizon.String(),
		Warmup:     m.Warmup.String(),
		Alloc:      alloc,
	}
	warmup := sim.Time(m.Warmup.D())
	totalDelay, totalSteady := 0.0, 0
	for _, rt := range tenants {
		eng := rt.gate.Engine()
		hist := eng.History()
		tr := TenantReport{
			Name:           rt.spec.Name,
			Workload:       rt.spec.Workload,
			Controller:     rt.spec.Controller,
			SLOClass:       rt.spec.SLOClass,
			Priority:       rt.spec.Priority,
			Weight:         rt.spec.Weight,
			Trace:          rt.trace.Describe(),
			Batches:        len(hist),
			Reconfigs:      eng.Reconfigs(),
			FinalInterval:  eng.Config().BatchInterval.String(),
			FinalExecutors: eng.Config().Executors,
			LiveExecutors:  eng.LiveExecutors(),
			Demand:         rt.gate.Demand(),
			Grant:          rt.gate.Grant(),
			Preemptions:    rt.preemptions,
			Lag:            eng.Lag(),
			CommittedLag:   eng.CommittedLag(),
			Redelivered:    eng.Redelivered(),
			FailedBatches:  eng.FailedBatches(),
			ShedEvents:     eng.ShedEvents(),
		}
		var delays, procs, scheds []float64
		for _, bs := range hist {
			tr.Records += bs.Records
			if bs.CutAt < warmup || bs.FirstAfterReconfig {
				continue
			}
			delays = append(delays, bs.EndToEndDelay.Seconds())
			procs = append(procs, bs.ProcessingTime.Seconds())
			scheds = append(scheds, bs.SchedulingDelay.Seconds())
		}
		tr.SteadyBatches = len(delays)
		if len(delays) > 0 {
			sort.Float64s(delays)
			tr.DelayMeanSec = stats.Mean(delays)
			tr.DelayP95Sec = stats.Percentile(delays, 0.95)
			tr.DelayMaxSec = delays[len(delays)-1]
			tr.ProcMeanSec = stats.Mean(procs)
			tr.SchedMeanSec = stats.Mean(scheds)
			totalDelay += tr.DelayMeanSec * float64(len(delays))
			totalSteady += len(delays)
		}
		rep.Cluster.TotalBatches += tr.Batches
		rep.Cluster.TotalRecords += tr.Records
		rep.Tenants = append(rep.Tenants, tr)
	}
	rep.Cluster.Nodes = m.Nodes
	rep.Cluster.WorkerCores = capacity
	rep.Cluster.UsedCores = cl.UsedCores()
	rep.Cluster.FreeCores = cl.FreeCores()
	if totalSteady > 0 {
		rep.Cluster.MeanDelaySec = totalDelay / float64(totalSteady)
	}
	det := &Detail{
		Engines: make(map[string]*engine.Engine, len(tenants)),
		Gates:   make(map[string]*Gate, len(tenants)),
		Tracer:  tracer,
	}
	for _, rt := range tenants {
		det.Engines[rt.spec.Name] = rt.gate.Engine()
		det.Gates[rt.spec.Name] = rt.gate
	}
	return rep, det, nil
}
