// Back pressure vs NoStop on an overloaded system — the comparison the
// paper's abstract promises. Both controllers face the same misconfigured
// deployment (5s interval, 4 executors, LogReg at [7k,13k] rec/s, which the
// fixed configuration cannot sustain):
//
//   - Spark's PID back pressure throttles ingestion until the system keeps
//     up: delay stays low, but a large share of the stream is refused.
//
//   - NoStop reconfigures interval and executors so the system absorbs the
//     full stream: no data loss, delay settles near the optimum.
//
//     go run ./examples/backpressure
package main

import (
	"fmt"
	"log"
	"time"

	"nostop/internal/baselines"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

const horizon = 75 * time.Minute

var overloaded = engine.Config{BatchInterval: 5 * time.Second, Executors: 4}

func buildEngine(seed *rng.Stream) (*sim.Clock, *engine.Engine, error) {
	clock := sim.NewClock()
	wl := workload.NewLogisticRegression()
	min, max := wl.RateBand()
	eng, err := engine.New(clock, engine.Options{
		Workload: wl,
		Trace:    ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split("trace")),
		Seed:     seed.Split("engine"),
		Initial:  overloaded,
	})
	if err != nil {
		return nil, nil, err
	}
	return clock, eng, eng.Start()
}

type outcome struct {
	name       string
	tailE2E    float64
	queue      int
	dropped    int64
	throughput float64
}

func measure(name string, clock *sim.Clock, eng *engine.Engine) outcome {
	clock.RunUntil(sim.Time(horizon))
	h := eng.History()
	var tail []float64
	for _, b := range h[len(h)*7/10:] {
		tail = append(tail, b.EndToEndDelay.Seconds())
	}
	var processed int64
	for _, b := range h {
		processed += b.Records
	}
	return outcome{
		name:       name,
		tailE2E:    stats.Mean(tail),
		queue:      eng.QueueLen(),
		dropped:    eng.DroppedByCap(),
		throughput: float64(processed) / horizon.Seconds(),
	}
}

func main() {
	var results []outcome

	{ // No controller: the unstable baseline.
		clock, eng, err := buildEngine(rng.New(1))
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, measure("none (unstable)", clock, eng))
	}
	{ // Spark PID back pressure.
		clock, eng, err := buildEngine(rng.New(1))
		if err != nil {
			log.Fatal(err)
		}
		bp, err := baselines.NewBackPressure(eng)
		if err != nil {
			log.Fatal(err)
		}
		if err := bp.Attach(); err != nil {
			log.Fatal(err)
		}
		results = append(results, measure("back pressure (PID)", clock, eng))
	}
	{ // NoStop.
		clock, eng, err := buildEngine(rng.New(1))
		if err != nil {
			log.Fatal(err)
		}
		ctl, err := core.New(eng, core.Options{Seed: rng.New(1).Split("nostop")})
		if err != nil {
			log.Fatal(err)
		}
		if err := ctl.Attach(); err != nil {
			log.Fatal(err)
		}
		out := measure("NoStop (SPSA)", clock, eng)
		out.name = fmt.Sprintf("NoStop (SPSA) → %v", eng.Config())
		results = append(results, out)
	}

	fmt.Printf("overloaded start %v, LogisticRegression at [7k,13k] rec/s, %v horizon\n\n", overloaded, horizon)
	fmt.Printf("%-40s %12s %8s %14s %14s\n", "controller", "e2e delay", "queue", "dropped", "throughput")
	for _, r := range results {
		fmt.Printf("%-40s %11.1fs %8d %14d %11.0f/s\n",
			r.name, r.tailE2E, r.queue, r.dropped, r.throughput)
	}
	fmt.Println("\nback pressure protects latency by refusing input; NoStop reconfigures and absorbs the full stream.")
}
