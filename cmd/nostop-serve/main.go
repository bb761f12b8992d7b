// Command nostop-serve supervises the networked broker/engine/controller
// trio (internal/service) through a chaos soak: it launches the three
// components, drives them with a seeded rate-trace load generator, injects
// process and link faults while they run, and exits non-zero if any
// robustness invariant is violated — records lost past committed offsets,
// controller callback panics, unbounded queue growth, or a component stuck
// degraded/frozen after chaos ends.
//
// Sim mode (default) delivers RPCs on a single deterministic event loop:
// same seed, same byte-identical run. Wall mode binds each component to a
// real HTTP server on 127.0.0.1 with its own paced virtual clock, so kills
// close real listeners and retries ride real sockets.
//
// Examples:
//
//	nostop-serve                                  # deterministic sim soak, scripted chaos
//	nostop-serve -chaos seeded -seed 7            # random kill/link schedule
//	nostop-serve -mode wall -duration 2m          # real-process soak (~6s at 20x)
//	nostop-serve -metrics out.prom -trace out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"nostop/internal/engine"
	"nostop/internal/faults"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/service"
	"nostop/internal/sim"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

func main() {
	var (
		mode       = flag.String("mode", "sim", "supervision mode: sim (deterministic event loop) or wall (real HTTP processes)")
		wlName     = flag.String("workload", "logreg", "workload: "+strings.Join(workload.Names(), ", "))
		seedN      = flag.Uint64("seed", 1, "root random seed (load, RPC jitter, SPSA, seeded chaos)")
		duration   = flag.Duration("duration", 5*time.Minute, "virtual soak duration")
		speedup    = flag.Float64("speedup", 20, "wall mode: virtual seconds per wall second")
		chaos      = flag.String("chaos", "scripted", "chaos plan: scripted, seeded, or none")
		queueBound = flag.Int("queue-bound", 200, "batch-queue length above which growth counts as unbounded")
		maxFetch   = flag.Int64("max-fetch", 5000, "engine per-fetch shedding budget (records)")
		metricsOut = flag.String("metrics", "", "write the Prometheus exposition to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace (chrome://tracing) to this file")
	)
	flag.Parse()
	if err := run(*mode, *wlName, *seedN, *duration, *speedup, *chaos, *queueBound, *maxFetch, *metricsOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "nostop-serve:", err)
		os.Exit(1)
	}
}

func run(mode, wlName string, seedN uint64, duration time.Duration, speedup float64, chaosMode string, queueBound int, maxFetch int64, metricsOut, traceOut string) error {
	if duration <= 0 {
		return fmt.Errorf("duration %v must be positive", duration)
	}
	wl, err := workload.New(wlName)
	if err != nil {
		return err
	}
	lo, hi := wl.RateBand()
	cfg := service.ClusterConfig{
		Seed:     seedN,
		Workload: wl,
		Trace:    ratetrace.NewUniformBand(lo, hi, 20*time.Second, rng.New(seedN).Split("trace")),
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
		MaxFetch: maxFetch,
		Speedup:  speedup,
	}
	var clock *sim.Clock
	switch mode {
	case "sim":
		cfg.Mode = service.ModeSim
		clock = sim.NewClock()
		cfg.Clock = clock
		// Virtual-time RPC budget: tight enough that a dead broker trips
		// the breaker well inside one fetch interval.
		cfg.RPC = service.ClientOptions{
			Timeout: 300 * time.Millisecond, MaxAttempts: 2,
			BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second,
			BreakerThreshold: 3, BreakerCooldown: 2 * time.Second,
		}
		if traceOut != "" {
			cfg.Tracer = tracing.New(clock, 1<<18)
		}
	case "wall":
		cfg.Mode = service.ModeWall
		if speedup <= 0 {
			return fmt.Errorf("speedup %v must be positive", speedup)
		}
		// Wall timers run in real time while component loops run in
		// compressed virtual time, so deadlines stay short.
		cfg.RPC = service.ClientOptions{
			Timeout: 250 * time.Millisecond, MaxAttempts: 2,
			BackoffBase: 50 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
			BreakerThreshold: 3, BreakerCooldown: 500 * time.Millisecond,
		}
		if traceOut != "" {
			cfg.WallTraceEvents = 1 << 16
		}
	default:
		return fmt.Errorf("unknown mode %q (valid: sim, wall)", mode)
	}

	cluster, err := service.NewCluster(cfg)
	if err != nil {
		return err
	}
	plan, err := chaosPlan(chaosMode, seedN, duration)
	if err != nil {
		return err
	}
	if err := cluster.Start(); err != nil {
		return err
	}

	var inj *faults.Injector
	if len(plan) > 0 {
		var sched faults.ProcSchedule
		if mode == "sim" {
			sched = faults.ClockSchedule{Clock: clock}
		} else {
			sched = newWallSchedule(speedup)
		}
		if inj, err = faults.AttachProc(cluster, sched, plan); err != nil {
			return err
		}
		inj.Observe(cluster.Registry(), cfg.Tracer)
	}

	fmt.Printf("nostop-serve: %s mode, %s over %v virtual, chaos=%s (%d windows), seed=%d\n",
		mode, wl.Name(), duration, chaosMode, len(plan), seedN)
	if mode == "sim" {
		cluster.RunSim(duration)
	} else {
		for _, name := range []string{service.PeerBroker, service.PeerEngine, service.PeerController} {
			fmt.Printf("  %-10s http://%s\n", name, cluster.Addr(name))
		}
		time.Sleep(time.Duration(float64(duration) / speedup))
	}
	cluster.Stop()

	tr := cluster.WallTracer()
	if tr == nil {
		tr = cfg.Tracer
	}
	return report(cluster, inj, tr, queueBound, len(plan) > 0, metricsOut, traceOut)
}

// chaosPlan builds the fault schedule: the scripted plan scales the test
// suite's canonical scenario (broker kill/restart, then a controller→engine
// link outage) to the soak duration; seeded draws a random sequential plan.
func chaosPlan(mode string, seedN uint64, d time.Duration) (faults.ProcPlan, error) {
	switch mode {
	case "none":
		return nil, nil
	case "scripted":
		return faults.ProcPlan{
			{Kind: faults.PeerKill, At: sim.Time(d / 5), Duration: d / 10, Peer: service.PeerBroker},
			{Kind: faults.LinkRefuse, At: sim.Time(d / 2), Duration: d / 15,
				From: service.PeerController, To: service.PeerEngine},
		}, nil
	case "seeded":
		plan := faults.ProcChaos(rng.New(seedN).Split("proc-chaos"), faults.ProcChaosOptions{
			Horizon: d,
			Peers:   []string{service.PeerBroker, service.PeerEngine, service.PeerController},
		})
		if len(plan) == 0 {
			return nil, fmt.Errorf("seeded chaos generated no faults; raise -duration")
		}
		return plan, nil
	default:
		return nil, fmt.Errorf("unknown chaos mode %q (valid: scripted, seeded, none)", mode)
	}
}

// wallSchedule maps virtual plan instants onto real timers at the soak
// speedup, counting from its creation (just before the cluster soak).
type wallSchedule struct {
	start   time.Time
	speedup float64
	mu      sync.Mutex
}

func newWallSchedule(speedup float64) *wallSchedule {
	return &wallSchedule{start: time.Now(), speedup: speedup}
}

// At implements faults.ProcSchedule. Actions are serialised so the timeline
// slice stays consistent across timer goroutines.
func (s *wallSchedule) At(t sim.Time, fn func()) {
	delay := time.Duration(float64(t)/s.speedup) - time.Since(s.start)
	if delay < 0 {
		delay = 0
	}
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		fn()
	})
}

// Now implements faults.ProcSchedule: the current virtual instant.
func (s *wallSchedule) Now() sim.Time {
	return sim.Time(float64(time.Since(s.start)) * s.speedup)
}

// report prints the invariant snapshots and chaos timeline, writes optional
// artifacts, and returns an error (non-zero exit) on any violation.
func report(cluster *service.Cluster, inj *faults.Injector, tr *tracing.Tracer, queueBound int, chaosRan bool, metricsOut, traceOut string) error {
	snaps := cluster.Snapshots()
	body, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("\nInvariant snapshots:\n%s\n", body)
	if inj != nil {
		fmt.Println("\nChaos timeline:")
		for _, line := range strings.Split(strings.TrimRight(inj.String(), "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, []byte(cluster.Registry().String()), 0o644); err != nil {
			return err
		}
		fmt.Println("\nmetrics:", metricsOut)
	}
	if traceOut != "" && tr != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("trace:", traceOut)
	}

	if v := service.Violations(snaps, queueBound, chaosRan); len(v) != 0 {
		for _, msg := range v {
			fmt.Fprintln(os.Stderr, "VIOLATION:", msg)
		}
		return fmt.Errorf("%d invariant violation(s)", len(v))
	}
	fmt.Println("\nall invariants held")
	return nil
}
