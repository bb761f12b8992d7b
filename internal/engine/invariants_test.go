package engine

import (
	"testing"
	"testing/quick"
	"time"

	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// Property-based invariants over random configurations and seeds: whatever
// the configuration, the engine must conserve records, order batches, and
// keep its timing arithmetic consistent.

func TestEngineInvariantsProperty(t *testing.T) {
	f := func(seedN uint64, intervalRaw, execRaw uint8, rateRaw uint16) bool {
		interval := time.Duration(int(intervalRaw)%39+1) * time.Second
		execs := int(execRaw)%20 + 1
		rate := float64(rateRaw%20000 + 500)
		clock := sim.NewClock()
		e, err := New(clock, Options{
			Workload: workload.NewWordCount(),
			Trace:    ratetrace.Constant{Rate: rate},
			Seed:     rng.New(seedN),
			Initial:  Config{BatchInterval: interval, Executors: execs},
		})
		if err != nil {
			return false
		}
		if err := e.Start(); err != nil {
			return false
		}
		clock.RunUntil(sim.Time(10 * time.Minute))

		// Invariant 1: records are conserved — processed + queued +
		// broker lag = produced (within the in-flight batch).
		var processed int64
		for _, b := range e.History() {
			processed += b.Records
		}
		if processed > e.TotalRecords() {
			return false
		}

		prevDone := sim.Time(-1)
		for i, b := range e.History() {
			// Invariant 2: IDs dense and ordered, completions ordered.
			if b.ID != int64(i) || b.DoneAt < prevDone {
				return false
			}
			prevDone = b.DoneAt
			// Invariant 3: timing arithmetic.
			if b.StartedAt != b.CutAt+sim.Time(b.SchedulingDelay) {
				return false
			}
			if b.DoneAt != b.StartedAt+sim.Time(b.ProcessingTime) {
				return false
			}
			if b.SchedulingDelay < 0 || b.ProcessingTime <= 0 {
				return false
			}
			// Invariant 4: e2e composition.
			if b.EndToEndDelay != b.Config.BatchInterval/2+b.SchedulingDelay+b.ProcessingTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng.New(23).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestReconfigSequenceProperty(t *testing.T) {
	// Random reconfiguration sequences must never corrupt executor
	// accounting: live executors always equal the live config's count
	// (full capacity available) and cluster books balance at the end.
	f := func(seedN uint64, steps []uint16) bool {
		clock := sim.NewClock()
		r := rng.New(seedN)
		e, err := New(clock, Options{
			Workload: workload.NewWordCount(),
			Trace:    ratetrace.Constant{Rate: 2000},
			Seed:     rng.New(seedN),
			Initial:  Config{BatchInterval: 5 * time.Second, Executors: 8},
		})
		if err != nil || e.Start() != nil {
			return false
		}
		if len(steps) > 12 {
			steps = steps[:12]
		}
		for i, s := range steps {
			at := sim.Time(time.Duration(i+1) * 30 * time.Second)
			cfg := Config{
				BatchInterval: time.Duration(int(s)%39+1) * time.Second,
				Executors:     r.Intn(20) + 1,
			}
			clock.At(at, func() { _ = e.Reconfigure(cfg) })
		}
		clock.RunUntil(sim.Time(15 * time.Minute))
		if e.LiveExecutors() != e.Config().Executors {
			return false
		}
		// The engine's allocation is the only one: used cores must match.
		return e.LiveExecutors() == usedCores(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng.New(29).Rand()}); err != nil {
		t.Error(err)
	}
}

func usedCores(e *Engine) int { return e.cl.UsedCores() }
