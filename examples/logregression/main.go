// Streaming machine learning under NoStop: a logistic-regression classifier
// trains on real generated records while SPSA tunes the system underneath,
// and a mid-run traffic surge exercises the §5.5 reset logic.
//
// This example enables the engine's payload path, so each batch carries
// concrete labelled points that the workload's SGD model actually fits —
// the printed accuracy is progressive validation on held-out-by-time data.
//
//	go run ./examples/logregression
package main

import (
	"fmt"
	"log"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

func main() {
	seed := rng.New(7)
	clock := sim.NewClock()
	wl := workload.NewLogisticRegression()

	// The paper's [7k, 13k] rec/s band, with an e-commerce-style surge
	// (§5.5's scenario) that roughly doubles the rate for 25 minutes.
	min, max := wl.RateBand()
	base := ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split("band"))
	trace := surgeOver(base, sim.Time(60*time.Minute), 25*time.Minute, 11000)

	eng, err := engine.New(clock, engine.Options{
		Workload:        wl,
		Trace:           trace,
		Seed:            seed.Split("engine"),
		Initial:         engine.DefaultConfig(),
		PayloadsPerTick: 8, // carry real labelled points for the SGD model
	})
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := core.New(eng, core.Options{Seed: seed.Split("nostop")})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	if err := ctl.Attach(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("time     config                         phase      rate/s   accuracy  e2e")
	for t := 10 * time.Minute; t <= 150*time.Minute; t += 10 * time.Minute {
		clock.RunUntil(sim.Time(t))
		h := eng.History()
		var tail []float64
		acc := 0.0
		for _, b := range h[len(h)*8/10:] {
			tail = append(tail, b.EndToEndDelay.Seconds())
			if a, ok := b.Semantic.Output["accuracy"]; ok {
				acc = a
			}
		}
		fmt.Printf("%-8v %-30v %-10v %7.0f   %.3f   %5.1fs\n",
			t, eng.Config(), ctl.Phase(), eng.RecentRateMean(), acc, stats.Mean(tail))
	}

	fmt.Printf("\nmodel after streaming: weights %.2v\n", wl.Weights())
	fmt.Printf("controller: %d iterations, %d resets (surge detected: %v), %d pauses\n",
		len(ctl.Iterations()), ctl.Resets(), ctl.Resets() > 0, ctl.Pauses())
}

// surgeOver lifts the floor of a band trace to peak during the surge window.
type liftedTrace struct {
	base  ratetrace.Trace
	start sim.Time
	dur   time.Duration
	peak  float64
}

func surgeOver(base ratetrace.Trace, start sim.Time, dur time.Duration, peak float64) ratetrace.Trace {
	return liftedTrace{base: base, start: start, dur: dur, peak: peak}
}

// RateAt implements ratetrace.Trace.
func (l liftedTrace) RateAt(t sim.Time) float64 {
	r := l.base.RateAt(t)
	if t >= l.start && t < l.start+sim.Time(l.dur) {
		return r + l.peak
	}
	return r
}

// Describe implements ratetrace.Trace.
func (l liftedTrace) Describe() string {
	return fmt.Sprintf("%s + surge %.0f at %v for %v", l.base.Describe(), l.peak, l.start, l.dur)
}

// NextChange implements ratetrace.Trace: the base's next change or a
// surge edge, whichever comes first.
func (l liftedTrace) NextChange(t sim.Time) sim.Time {
	next := l.base.NextChange(t)
	if t < l.start && l.start < next {
		next = l.start
	}
	if end := l.start + sim.Time(l.dur); t < end && end < next && t >= l.start {
		next = end
	}
	return next
}
