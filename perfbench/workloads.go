package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nostop/internal/engine"
	"nostop/internal/experiments"
	"nostop/internal/faults"
	"nostop/internal/fleet"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/service"
	"nostop/internal/sim"
	"nostop/internal/tenant"
	"nostop/internal/workload"
)

// producerTick is the engine's default producer tick: every app calls
// ratetrace.RecordsIn and broker SendCount once per tick.
const producerTick = 100 * time.Millisecond

// A workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	// setupLayer is the layer the set-up spans are charged to; roundLayer
	// the layer charged with a round span's self time (the fleet pool's
	// idle workers on sweep, harness bookkeeping elsewhere).
	setupLayer string
	roundLayer string
	// setup generates and validates the inputs; quick shrinks them for tests.
	setup func(seed uint64, quick bool) (bench, error)
}

var workloadDefs = []workloadDef{
	{"sweep", layerFleet, layerFleet, newSweep},
	{"tenants", layerTenant, layerBench, newTenants},
	{"zoo-observed", layerFleet, layerBench, newZoo},
	{"service-soak", layerService, layerBench, newSoak},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return strings.Join(names, ", ")
}

// A bench is one workload with its inputs generated.
type bench interface {
	// workers is the number of goroutines a round runs app-runs on.
	workers() int
	// round runs the whole job set once, recording spans under parent.
	// Round 0 is the reference round; workloads whose cost depends on the
	// seed draw fresh seeds for later rounds.
	round(rec *recorder, parent, i int) (*round, error)
	// twin runs each app-run's correctness twin, in the reference round's
	// order; nil means the repeated rounds are the twins.
	twin(rec *recorder, parent int) (*round, error)
	// pattern is the leaf-layer call pattern of a round, for the replays.
	pattern(r *round) pattern
}

// appRun is one simulated app-run's outcome.
type appRun struct {
	key    string
	digest string // sha256 of everything it output, compared across rounds
	twin   string // sha256 of what its twin must reproduce
	err    error
}

// round is what one pass over a job set did.
type round struct {
	runs []appRun
	// fresh rounds ran other seeds than the reference round, so only their
	// errors are checked, not their digests.
	fresh bool
	// repeats is how many times each app-run was simulated (2 when the
	// round also ran the twins); simHours and wall cover every repeat, c
	// covers one.
	repeats    int
	simHours   float64
	wall       float64 // seconds, set by the caller
	rt         rtSample
	execWall   float64 // Σ wall seconds inside ExecuteObserved (zoo-observed)
	identity   hash.Hash
	identityOf string
	c          counts
}

func newRound(identityOf string) *round {
	return &round{repeats: 1, identity: sha256.New(), identityOf: identityOf}
}

// counts are read from the program's public accessors after each app-run.
type counts struct {
	clocks      int     // independent simulation clocks
	clockHours  float64 // simulated hours per clock
	apps        int     // streaming apps (engines)
	events      uint64  // sim events executed
	depth       int     // largest event-queue depth left at the horizon
	ticks       float64 // producer ticks: RecordsIn + SendCount calls
	traceCalls  float64 // RecordsIn calls on the ratetrace kinds
	partitions  int     // partitions per topic
	batches     int
	retries     int
	failed      int64
	shed        int
	redelivered int64
	reconfigs   int
	records     int64
	observed    int // apps with a metrics registry attached
	traced      int // apps with a tracer attached

	tracerEvents int
	tracerDrops  int
	expoBytes    int
	traceBytes   int
	expoSec      float64
	traceSec     float64

	allocRounds, regrants, preemptions int

	rpcAttempts, rpcFailures, rpcRetries, rpcFastfails float64
	statusPolls                                        float64
	historyLen                                         int
	statusSec, batchesSec                              float64
}

func (c *counts) add(o counts) {
	c.clocks += o.clocks
	if o.clockHours > c.clockHours {
		c.clockHours = o.clockHours
	}
	c.apps += o.apps
	c.events += o.events
	if o.depth > c.depth {
		c.depth = o.depth
	}
	c.ticks += o.ticks
	c.traceCalls += o.traceCalls
	if o.partitions > c.partitions {
		c.partitions = o.partitions
	}
	c.batches += o.batches
	c.retries += o.retries
	c.failed += o.failed
	c.shed += o.shed
	c.redelivered += o.redelivered
	c.reconfigs += o.reconfigs
	c.records += o.records
	c.observed += o.observed
	c.traced += o.traced
	c.tracerEvents += o.tracerEvents
	c.tracerDrops += o.tracerDrops
	c.expoBytes += o.expoBytes
	c.traceBytes += o.traceBytes
	c.expoSec += o.expoSec
	c.traceSec += o.traceSec
	c.allocRounds += o.allocRounds
	c.regrants += o.regrants
	c.preemptions += o.preemptions
	c.rpcAttempts += o.rpcAttempts
	c.rpcFailures += o.rpcFailures
	c.rpcRetries += o.rpcRetries
	c.rpcFastfails += o.rpcFastfails
	c.statusPolls += o.statusPolls
	c.historyLen += o.historyLen
	c.statusSec += o.statusSec
	c.batchesSec += o.batchesSec
}

// engineCounts reads one engine's behaviour counts over a run of the given
// simulated length.
func engineCounts(eng *engine.Engine, horizon time.Duration) counts {
	return counts{
		apps:        1,
		ticks:       float64(horizon / producerTick),
		traceCalls:  float64(horizon / producerTick),
		partitions:  eng.Partitions(),
		batches:     len(eng.History()),
		retries:     eng.TaskRetries(),
		failed:      eng.FailedBatches(),
		shed:        eng.ShedEvents(),
		redelivered: eng.Redelivered(),
		reconfigs:   eng.Reconfigs(),
		records:     eng.TotalRecords(),
	}
}

// clockCounts reads a finished clock's event counts.
func clockCounts(clock *sim.Clock, horizon time.Duration) counts {
	return counts{clocks: 1, clockHours: horizon.Hours(), events: clock.Executed(), depth: clock.Pending()}
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// deriveSeeds draws n job seeds from the workload's split of the root seed.
func deriveSeeds(seed uint64, name string, n int) []uint64 {
	s := rng.New(seed).Split("perfbench/" + name)
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(s.Int63())
	}
	return out
}

// --- sweep: the Fig-7 fleet grid on a pool of nproc workers ---

type sweep struct {
	spec   fleet.Spec
	jobs   []fleet.Job
	hashes []string
	pool   int
}

func newSweep(seed uint64, quick bool) (bench, error) {
	spec := fleet.Spec{
		Name:        "perfbench-sweep",
		Seeds:       deriveSeeds(seed, "sweep", 8),
		Workloads:   []string{"logreg", "linreg", "wordcount", "pageanalyze"},
		Controllers: []string{fleet.ControllerStatic, fleet.ControllerNoStop},
		Horizon:     fleet.Duration(40 * time.Minute),
		Warmup:      0.5,
	}
	if quick {
		spec.Seeds, spec.Workloads = spec.Seeds[:1], spec.Workloads[:2]
		spec.Horizon = fleet.Duration(10 * time.Minute)
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	s := &sweep{spec: spec, jobs: jobs, hashes: make([]string, len(jobs)), pool: runtime.NumCPU()}
	for i, j := range jobs {
		s.hashes[i] = j.Hash()
	}
	return s, nil
}

func (s *sweep) workers() int { return s.pool }

func (s *sweep) round(rec *recorder, parent, _ int) (*round, error) {
	return s.pass(rec, parent, s.pool)
}

// twin is the same job set on a 1-worker pool: parallelism must not change
// a single output byte.
func (s *sweep) twin(rec *recorder, parent int) (*round, error) {
	start := time.Now()
	r, err := s.pass(rec, parent, 1)
	if r != nil {
		r.wall = time.Since(start).Seconds()
	}
	return r, err
}

func (s *sweep) pass(rec *recorder, parent, workers int) (*round, error) {
	type slot struct {
		run appRun
		sum fleet.Summary
		c   counts
	}
	slots := make([]slot, len(s.jobs))
	err := fleet.ParallelFor(len(s.jobs), workers, func(i int) error {
		job := s.jobs[i]
		id := rec.begin(job.String(), layerEngine, parent, 1)
		sum, det, err := fleet.ExecuteObserved(job, fleet.Observe{})
		rec.end(id)
		slots[i].run.key = job.String()
		if err != nil {
			slots[i].run.err = err
			return nil
		}
		enc, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		slots[i].run.digest = digest(enc)
		slots[i].run.twin = slots[i].run.digest
		slots[i].sum = sum
		slots[i].c = engineCounts(det.Engine, job.Horizon.D())
		slots[i].c.add(clockCounts(det.Engine.Clock(), job.Horizon.D()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := newRound("the fleet manifest")
	m := fleet.Manifest{Version: 1, Spec: s.spec}
	for i, sl := range slots {
		r.runs = append(r.runs, sl.run)
		r.c.add(sl.c)
		r.simHours += s.jobs[i].Horizon.D().Hours()
		m.Jobs = append(m.Jobs, fleet.Record{Hash: s.hashes[i], Job: s.jobs[i], Summary: sl.sum})
	}
	enc, err := m.Encode()
	if err != nil {
		return nil, err
	}
	r.identity.Write(enc)
	return r, nil
}

func (s *sweep) pattern(r *round) pattern {
	wl, _ := workload.New(s.spec.Workloads[0]) // the set-up already built this workload
	lo, hi := wl.RateBand()
	p := singleApp(r)
	p.traces = func(seed *rng.Stream) []ratetrace.Trace {
		return []ratetrace.Trace{ratetrace.NewUniformBand(lo, hi, 5*time.Second, seed)}
	}
	return p
}

// --- tenants: the 32-tenant / 1000-node fair-share mix on one clock ---

type tenants struct {
	mix  tenant.MixSpec
	seed uint64
}

func newTenants(seed uint64, quick bool) (bench, error) {
	mix := tenant.Synthetic(32, 1000, 4, tenant.AllocFairShare, tenant.Duration(30*time.Minute))
	mix.Partitions = 100
	if quick {
		mix = tenant.Synthetic(4, 16, 4, tenant.AllocFairShare, tenant.Duration(10*time.Minute))
		mix.Partitions = 16
	}
	m, err := mix.Validate()
	if err != nil {
		return nil, err
	}
	return &tenants{mix: m, seed: seed}, nil
}

func (t *tenants) workers() int { return 1 }

// round runs the mix on a fresh seed, then its twin: the same-seed report
// through tenant.Run, which must match tenant by tenant.
func (t *tenants) round(rec *recorder, parent, i int) (*round, error) {
	seed := deriveSeeds(t.seed, fmt.Sprintf("tenants/%d", i), 1)[0]
	r := newRound("the tenant report")
	r.fresh, r.repeats = i > 0, 2
	horizon := t.mix.Horizon.D()
	r.simHours = 2 * float64(len(t.mix.Tenants)) * horizon.Hours()

	id := rec.begin("tenant.RunDetailed "+t.mix.Name, layerEngine, parent, 1)
	rep, det, err := tenant.RunDetailed(t.mix, seed, tenant.Observe{})
	rec.end(id)
	if err != nil {
		for _, ts := range t.mix.Tenants {
			r.runs = append(r.runs, appRun{key: ts.Name, err: err})
		}
		return r, nil
	}
	id = rec.begin("tenant.Run "+t.mix.Name, layerEngine, parent, 1)
	twin, twinErr := tenant.Run(t.mix, seed, tenant.Observe{})
	rec.end(id)

	for k, tr := range rep.Tenants {
		enc, err := json.Marshal(tr)
		if err != nil {
			return nil, err
		}
		run := appRun{key: tr.Name, digest: digest(enc)}
		run.twin = run.digest
		switch {
		case twinErr != nil:
			run.err = fmt.Errorf("same-seed twin: %v", twinErr)
		case k >= len(twin.Tenants):
			run.err = fmt.Errorf("same-seed twin has no tenant %s", tr.Name)
		default:
			// A twin that fails to encode leaves te empty: a mismatch.
			if te, _ := json.Marshal(twin.Tenants[k]); digest(te) != run.digest {
				run.err = fmt.Errorf("output differs from its same-seed twin")
			}
		}
		r.runs = append(r.runs, run)
		eng := det.Engines[tr.Name]
		r.c.add(engineCounts(eng, horizon))
		if k == 0 {
			r.c.add(clockCounts(eng.Clock(), horizon))
		}
	}
	r.c.allocRounds, r.c.regrants, r.c.preemptions = rep.Alloc.Rounds, rep.Alloc.Regrants, rep.Alloc.Preemptions
	enc, err := rep.Encode()
	if err != nil {
		return nil, err
	}
	r.identity.Write(enc)
	return r, nil
}

// twin is nil: every round runs its own same-seed twin.
func (t *tenants) twin(*recorder, int) (*round, error) { return nil, nil }

func (t *tenants) pattern(r *round) pattern {
	p := pattern{
		depth:          r.c.depth,
		eventsPerHour:  float64(r.c.events) / (float64(r.c.clocks) * r.c.clockHours),
		traceTick:      producerTick,
		sendTick:       producerTick,
		topics:         len(t.mix.Tenants),
		partitions:     r.c.partitions,
		tenantTopics:   true,
		recordsPerHour: float64(r.c.records) / (float64(r.c.clocks) * r.c.clockHours),
		batchesPerHour: float64(r.c.batches) / (float64(r.c.clocks) * r.c.clockHours),
		labels:         []metrics.Label{metrics.L("tenant", t.mix.Tenants[0].Name)},
	}
	specs := t.mix.Tenants
	p.traces = func(seed *rng.Stream) []ratetrace.Trace {
		out := make([]ratetrace.Trace, 0, len(specs))
		for _, ts := range specs {
			tr, err := ts.Trace.Build(seed.Split(ts.Name))
			if err == nil {
				out = append(out, tr)
			}
		}
		return out
	}
	return p
}

// --- zoo-observed: the controller zoo under chaos, metrics and tracer on ---

type zoo struct {
	jobs []fleet.Job
}

func newZoo(seed uint64, quick bool) (bench, error) {
	const wlName = "logreg"
	space, err := experiments.ZooSpace(wlName)
	if err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	horizon, ctls, seeds := 40*time.Minute, experiments.ZooControllers(), deriveSeeds(seed, "zoo-observed", 2)
	if quick {
		horizon, ctls, seeds = 20*time.Minute, ctls[:2], seeds[:1]
	}
	plan := experiments.ChaosPlan(horizon)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	z := &zoo{}
	for _, ctl := range ctls {
		for _, sd := range seeds {
			job := fleet.Job{
				Workload:   wlName,
				Controller: ctl,
				Seed:       sd,
				Horizon:    fleet.Duration(horizon),
				Warmup:     0.5,
				Trace:      fleet.TraceSpec{Kind: "band", Period: fleet.Duration(5 * time.Second)},
				Plan:       fleet.NamedPlan{Name: "chaos", Faults: plan},
				Space:      &space,
			}
			_ = job.Hash() // job hashing is part of a sweep's set-up
			z.jobs = append(z.jobs, job)
		}
	}
	return z, nil
}

func (z *zoo) workers() int { return 1 }

// round runs every job observed, one after another, and renders each job's
// Prometheus exposition and Chrome trace as nostop-ask does.
func (z *zoo) round(rec *recorder, parent, _ int) (*round, error) {
	r := newRound("each job's summary, exposition and trace")
	for _, job := range z.jobs {
		id := rec.begin(job.String(), layerEngine, parent, 1)
		reg := metrics.NewRegistry()
		start := time.Now()
		sum, det, err := fleet.ExecuteObserved(job, fleet.Observe{Metrics: reg, Trace: true})
		r.execWall += time.Since(start).Seconds()
		r.simHours += job.Horizon.D().Hours()
		if err != nil {
			rec.end(id)
			r.runs = append(r.runs, appRun{key: job.String(), err: err})
			continue
		}
		var expo, trace bytes.Buffer
		c := engineCounts(det.Engine, job.Horizon.D())
		c.add(clockCounts(det.Engine.Clock(), job.Horizon.D()))
		c.observed, c.traced = 1, 1
		sp := rec.begin("Registry.WritePrometheus", layerMetrics, id, 1)
		t0 := time.Now()
		err = reg.WritePrometheus(&expo)
		c.expoSec = time.Since(t0).Seconds()
		rec.end(sp)
		if err == nil {
			sp = rec.begin("Tracer.WriteJSON", layerTracing, id, 1)
			t0 = time.Now()
			err = det.Tracer.WriteJSON(&trace)
			c.traceSec = time.Since(t0).Seconds()
			rec.end(sp)
		}
		rec.end(id)
		if err != nil {
			return nil, err
		}
		c.tracerEvents, c.tracerDrops = det.Tracer.Len(), det.Tracer.Dropped()
		c.expoBytes, c.traceBytes = expo.Len(), trace.Len()
		r.c.add(c)
		enc, err := json.Marshal(sum)
		if err != nil {
			return nil, err
		}
		r.runs = append(r.runs, appRun{
			key:    job.String(),
			digest: digest(enc, expo.Bytes(), trace.Bytes()),
			twin:   digest(enc),
		})
		r.identity.Write(enc)
		r.identity.Write(expo.Bytes())
		r.identity.Write(trace.Bytes())
	}
	return r, nil
}

// twin runs every job unobserved: attaching sinks must not change the
// summary (the zero-perturbation contract).
func (z *zoo) twin(rec *recorder, parent int) (*round, error) {
	r := newRound("each job's summary")
	for _, job := range z.jobs {
		id := rec.begin(job.String(), layerEngine, parent, 1)
		start := time.Now()
		sum, _, err := fleet.ExecuteObserved(job, fleet.Observe{})
		r.execWall += time.Since(start).Seconds()
		rec.end(id)
		if err != nil {
			r.runs = append(r.runs, appRun{key: job.String(), err: err})
			continue
		}
		enc, err := json.Marshal(sum)
		if err != nil {
			return nil, err
		}
		r.runs = append(r.runs, appRun{key: job.String(), twin: digest(enc)})
	}
	return r, nil
}

func (z *zoo) pattern(r *round) pattern {
	wl, _ := workload.New(z.jobs[0].Workload) // the set-up already built this workload
	lo, hi := wl.RateBand()
	p := singleApp(r)
	p.traces = func(seed *rng.Stream) []ratetrace.Trace {
		return []ratetrace.Trace{ratetrace.NewUniformBand(lo, hi, 5*time.Second, seed)}
	}
	return p
}

// singleApp is the pattern of a round of independent one-app clocks.
func singleApp(r *round) pattern {
	clockHours := float64(r.c.clocks) * r.c.clockHours
	p := pattern{
		depth:          r.c.depth,
		eventsPerHour:  float64(r.c.events) / clockHours,
		traceTick:      producerTick,
		sendTick:       producerTick,
		topics:         1,
		partitions:     r.c.partitions,
		recordsPerHour: float64(r.c.records) / clockHours,
		batchesPerHour: float64(r.c.batches) / clockHours,
		tracerPerHour:  float64(r.c.tracerEvents) / clockHours,
	}
	if r.c.observed > 0 {
		p.addsPerHour, p.observesPerHour = observedCalls(float64(r.c.ticks)/clockHours, p.partitions, p.batchesPerHour)
	}
	return p
}

// observedCalls models an observed engine's metrics calls per hour: the
// broker's append hook adds once per partition per producer tick, and each
// batch updates 12 counters and gauges and observes 5 histograms.
func observedCalls(ticksPerHour float64, partitions int, batchesPerHour float64) (adds, observes float64) {
	return ticksPerHour*float64(partitions) + 12*batchesPerHour, 5 * batchesPerHour
}

// --- service-soak: the sim-mode broker/engine/controller trio under chaos ---

// soakQueueBound is the batch-queue length nostop-serve treats as unbounded
// growth.
const soakQueueBound = 200

type soak struct {
	seed     uint64
	wlName   string
	duration time.Duration
	plan     faults.ProcPlan
}

func newSoak(seed uint64, quick bool) (bench, error) {
	d := time.Hour
	if quick {
		d = 10 * time.Minute
	}
	// linreg rather than nostop-serve's default logreg: under the scripted
	// plan about 3% of logreg soaks end with the batch queue past
	// soakQueueBound, which service.Violations flags; no probed linreg seed
	// ended with more than 2 batches queued.
	s := &soak{seed: seed, wlName: "linreg", duration: d,
		plan: faults.ProcPlan{
			{Kind: faults.PeerKill, At: sim.Time(d / 5), Duration: d / 10, Peer: service.PeerBroker},
			{Kind: faults.LinkRefuse, At: sim.Time(d / 2), Duration: d / 15,
				From: service.PeerController, To: service.PeerEngine},
		}}
	// Building and starting the cluster is what a soak pays before its
	// first record; each round builds its own.
	c, _, err := s.start(s.seed)
	if err != nil {
		return nil, err
	}
	c.Stop()
	return s, nil
}

// start builds and starts the trio as nostop-serve does in sim mode and
// attaches the scripted chaos plan. The workload is built afresh each time:
// its cost model carries state across batches.
func (s *soak) start(seed uint64) (*service.Cluster, *faults.ProcInjector, error) {
	wl, err := workload.New(s.wlName)
	if err != nil {
		return nil, nil, err
	}
	clock := sim.NewClock()
	lo, hi := wl.RateBand()
	c, err := service.NewCluster(service.ClusterConfig{
		Mode:     service.ModeSim,
		Seed:     seed,
		Workload: wl,
		Trace:    ratetrace.NewUniformBand(lo, hi, 20*time.Second, rng.New(seed).Split("trace")),
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
		MaxFetch: 5000,
		Clock:    clock,
		RPC: service.ClientOptions{
			Timeout: 300 * time.Millisecond, MaxAttempts: 2,
			BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second,
			BreakerThreshold: 3, BreakerCooldown: 2 * time.Second,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := c.Start(); err != nil {
		return nil, nil, err
	}
	inj, err := faults.AttachProc(c, faults.ClockSchedule{Clock: clock}, s.plan)
	if err != nil {
		return nil, nil, err
	}
	inj.Observe(c.Registry(), nil)
	return c, inj, nil
}

func (s *soak) workers() int { return 1 }

// round soaks a fresh seed: how long the controller keeps the batch
// interval short, and so how long the history /status sorts grows, varies
// with the seed, and fresh seeds average that out over a run.
func (s *soak) round(rec *recorder, parent, i int) (*round, error) {
	r := newRound("the soak's snapshots, exposition, /status and /batches")
	r.fresh = i > 0
	r.simHours = s.duration.Hours()
	id := rec.begin("service soak", layerEngine, parent, 1)
	c, inj, err := s.start(deriveSeeds(s.seed, fmt.Sprintf("service-soak/%d", i), 1)[0])
	if err == nil {
		c.RunSim(s.duration)
	}
	rec.end(id)
	if err != nil {
		r.runs = append(r.runs, appRun{key: "soak", err: err})
		return r, nil
	}
	comp := c.Component(service.PeerEngine)
	es, ok := comp.(*service.EngineService)
	if !ok {
		return nil, fmt.Errorf("engine component is %T", comp)
	}
	cnt := engineCounts(es.Engine(), s.duration)
	cnt.add(clockCounts(c.Clock(), s.duration))
	cnt.observed = 1
	// The broker service generates arrivals on each engine fetch (1 s).
	cnt.traceCalls = float64(s.duration / time.Second)
	// The controller polls the engine's /status once per second.
	cnt.statusPolls = float64(s.duration / time.Second)
	cnt.historyLen = len(es.Engine().History())

	status, statusSec, err := timedGet(rec, parent, comp.Handler(), "/status", layerListener)
	if err != nil {
		return nil, err
	}
	batches, batchesSec, err := timedGet(rec, parent, comp.Handler(), "/batches?since=0", layerService)
	if err != nil {
		return nil, err
	}
	cnt.statusSec, cnt.batchesSec = statusSec, batchesSec
	var expo bytes.Buffer
	sp := rec.begin("Registry.WritePrometheus", layerMetrics, parent, 1)
	t0 := time.Now()
	err = c.Registry().WritePrometheus(&expo)
	cnt.expoSec = time.Since(t0).Seconds()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	cnt.expoBytes = expo.Len()
	cnt.rpcAttempts = familySum(expo.String(), "nostop_rpc_attempts_total")
	cnt.rpcFailures = familySum(expo.String(), "nostop_rpc_attempt_failures_total")
	cnt.rpcRetries = familySum(expo.String(), "nostop_rpc_retries_total")
	cnt.rpcFastfails = familySum(expo.String(), "nostop_rpc_fastfail_total")
	r.c.add(cnt)

	c.Stop()
	snaps := c.Snapshots()
	enc, err := json.Marshal(snaps)
	if err != nil {
		return nil, err
	}
	out := [][]byte{enc, expo.Bytes(), status, batches, []byte(inj.String())}
	run := appRun{key: "soak", digest: digest(out...)}
	run.twin = run.digest
	if v := service.Violations(snaps, soakQueueBound, true); len(v) > 0 {
		run.err = fmt.Errorf("invariant violations: %s", strings.Join(v, "; "))
	}
	r.runs = append(r.runs, run)
	for _, b := range out {
		r.identity.Write(b)
	}
	return r, nil
}

// twin is nil: a soak is checked by service.Violations on its snapshots.
func (s *soak) twin(*recorder, int) (*round, error) { return nil, nil }

func (s *soak) pattern(r *round) pattern {
	wl, _ := workload.New(s.wlName) // the set-up already built this workload
	lo, hi := wl.RateBand()
	p := singleApp(r)
	p.traceTick = time.Second
	p.traces = func(seed *rng.Stream) []ratetrace.Trace {
		return []ratetrace.Trace{ratetrace.NewUniformBand(lo, hi, 20*time.Second, seed)}
	}
	return p
}

// timedGet serves one GET through a component handler five times and
// returns the body and the median wall seconds of a call.
func timedGet(rec *recorder, parent int, h http.Handler, path, layer string) ([]byte, float64, error) {
	var body []byte
	var secs []float64
	for i := 0; i < 5; i++ {
		id := rec.begin("GET "+path, layer, parent, 1)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		secs = append(secs, time.Since(t0).Seconds())
		rec.end(id)
		if rr.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("GET %s: status %d", path, rr.Code)
		}
		body = rr.Body.Bytes()
	}
	return body, quantile(secs, 0.5), nil
}

// familySum adds up every sample of one counter family in a Prometheus
// exposition.
func familySum(expo, family string) float64 {
	total := 0.0
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}
