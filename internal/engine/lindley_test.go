package engine

import (
	"fmt"
	"testing"
	"time"

	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// TestLindleyRecursion pins the batch queue to Lindley's recursion, an
// identity the engine's code never states: in a fault-free run each batch
// waits W_n = max(0, W_{n-1} + P_{n-1} - (C_n - C_{n-1})), with W the
// scheduling delay, P the processing time and C the cut instant, to the
// nanosecond, and the first batch does not wait. Each cell draws a
// workload, a constant rate from well below its band to well above it (so
// idle, ideal and pile-up regimes all occur), a starting interval and
// executor count, and up to four mid-run reconfigurations at random times.
func TestLindleyRecursion(t *testing.T) {
	r := rng.New(1808).Split("engine/lindley").Rand()
	names := workload.Names()
	bounds := DefaultBounds()
	randConfig := func() Config {
		return Config{
			BatchInterval: time.Duration(1+r.Intn(40)) * time.Second,
			Executors:     bounds.MinExecutors + r.Intn(bounds.MaxExecutors-bounds.MinExecutors+1),
		}
	}
	const horizon = time.Hour
	batches, waited := 0, 0
	for cell := 0; cell < 24; cell++ {
		wl, err := workload.New(names[r.Intn(len(names))])
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := wl.RateBand()
		rate := lo/5 + r.Float64()*(3*hi-lo/5)
		initial := randConfig()
		label := fmt.Sprintf("cell %d: %s at %.0f rec/s from %v", cell, wl.Name(), rate, initial)

		clock := sim.NewClock()
		e, err := New(clock, Options{
			Workload: wl,
			Trace:    ratetrace.Constant{Rate: rate},
			Seed:     rng.New(uint64(cell + 1)),
			Initial:  initial,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		for i := r.Intn(5); i > 0; i-- {
			at := sim.Time(r.Int63n(int64(horizon)))
			cfg := randConfig()
			label += fmt.Sprintf(", %v at %v", cfg, time.Duration(at))
			clock.At(at, func() {
				if err := e.Reconfigure(cfg); err != nil {
					t.Errorf("%s: Reconfigure: %v", label, err)
				}
			})
		}
		clock.RunUntil(sim.Time(horizon))

		h := e.History()
		if len(h) < 2 {
			t.Fatalf("%s: only %d batches", label, len(h))
		}
		if h[0].SchedulingDelay != 0 {
			t.Fatalf("%s: first batch waited %v", label, h[0].SchedulingDelay)
		}
		for n := 1; n < len(h); n++ {
			prev, cur := h[n-1], h[n]
			want := prev.SchedulingDelay + prev.ProcessingTime - time.Duration(cur.CutAt-prev.CutAt)
			if want < 0 {
				want = 0
			}
			if want > 0 {
				waited++
			}
			if cur.SchedulingDelay != want {
				t.Fatalf("%s: batch %d waited %v, Lindley's recursion gives %v (batch %d waited %v, ran %v, cut %v apart)",
					label, cur.ID, cur.SchedulingDelay, want, prev.ID, prev.SchedulingDelay,
					prev.ProcessingTime, time.Duration(cur.CutAt-prev.CutAt))
			}
		}
		batches += len(h)
	}
	// Without queueing the identity would hold trivially.
	if waited < batches/10 {
		t.Fatalf("only %d of %d batches waited: the cells never queue", waited, batches)
	}
	t.Logf("%d batches over 24 one-hour cells, %d of them queued", batches, waited)
}
