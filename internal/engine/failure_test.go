package engine

import (
	"testing"
	"time"

	"nostop/internal/cluster"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

func TestFailNodeSheds_Executors(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.Initial = Config{BatchInterval: 5 * time.Second, Executors: 20}
	})
	clock.RunUntil(sim.Time(sec(20)))
	if e.LiveExecutors() != 20 {
		t.Fatalf("live executors %d, want 20", e.LiveExecutors())
	}
	// Kill a 6-core worker: capacity drops to 18, so the allocation must
	// shrink below the configured 20.
	clock.At(sim.Time(sec(22)), func() {
		if err := e.FailNode(3); err != nil {
			t.Errorf("FailNode: %v", err)
		}
	})
	clock.RunUntil(sim.Time(sec(40)))
	if e.LiveExecutors() != 18 {
		t.Fatalf("live executors %d after failure, want 18", e.LiveExecutors())
	}
	if e.Config().Executors != 20 {
		t.Fatalf("configured executors changed: %d", e.Config().Executors)
	}
	// Restore: allocation refills to the configured count.
	clock.At(sim.Time(sec(42)), func() {
		if err := e.RestoreNode(3); err != nil {
			t.Errorf("RestoreNode: %v", err)
		}
	})
	clock.RunUntil(sim.Time(sec(60)))
	if e.LiveExecutors() != 20 {
		t.Fatalf("live executors %d after restore, want 20", e.LiveExecutors())
	}
}

func TestFailNodeChargesSetupAndFlags(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.ReconfigSetup = 8 * time.Second
	})
	clock.At(sim.Time(sec(12)), func() { _ = e.FailNode(4) })
	clock.RunUntil(sim.Time(sec(60)))
	var flagged, slow bool
	for _, b := range e.History() {
		if b.FirstAfterReconfig {
			flagged = true
		}
		if b.ProcessingTime > 8*time.Second {
			slow = true
		}
	}
	if !flagged {
		t.Error("failure did not flag the next batch")
	}
	if !slow {
		t.Error("failure did not charge the setup cost")
	}
}

func TestFailUnknownNode(t *testing.T) {
	_, e := newEngine(t, nil)
	if err := e.FailNode(99); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestTotalOutageStallsAndRecovers(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.Cluster = cluster.Homogeneous(2, 6)
		o.Bounds = Bounds{
			MinInterval: time.Second, MaxInterval: 40 * time.Second,
			MinExecutors: 1, MaxExecutors: 12,
		}
		o.Initial = Config{BatchInterval: 5 * time.Second, Executors: 8}
	})
	clock.At(sim.Time(sec(20)), func() {
		_ = e.FailNode(2)
		_ = e.FailNode(3)
	})
	clock.RunUntil(sim.Time(sec(60)))
	if e.LiveExecutors() != 0 {
		t.Fatalf("live executors %d during total outage", e.LiveExecutors())
	}
	before := len(e.History())
	clock.RunUntil(sim.Time(sec(120)))
	if got := len(e.History()); got != before {
		t.Fatalf("batches completed during total outage: %d → %d", before, got)
	}
	if e.QueueLen() < 10 {
		t.Fatalf("queue %d during outage, expected pile-up", e.QueueLen())
	}
	// One node returns: processing resumes and the queue drains.
	clock.At(sim.Time(sec(122)), func() { _ = e.RestoreNode(2) })
	clock.RunUntil(sim.Time(sec(600)))
	if len(e.History()) == before {
		t.Fatal("no batches completed after restoration")
	}
	if e.LiveExecutors() != 6 {
		t.Fatalf("live executors %d after partial restore, want 6", e.LiveExecutors())
	}
}

func TestReconfigureDuringFailureDegradesGracefully(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.Initial = Config{BatchInterval: 5 * time.Second, Executors: 8}
	})
	clock.At(sim.Time(sec(10)), func() {
		_ = e.FailNode(2)
		_ = e.FailNode(3)
		// Ask for more executors than the degraded cluster can host.
		if err := e.Reconfigure(Config{BatchInterval: 5 * time.Second, Executors: 20}); err != nil {
			t.Errorf("Reconfigure during failure: %v", err)
		}
	})
	clock.RunUntil(sim.Time(sec(60)))
	// Capacity with nodes 4 and 5 alive is 12: the allocation caps there.
	if e.LiveExecutors() != 12 {
		t.Fatalf("live executors %d, want capped 12", e.LiveExecutors())
	}
	clock.At(sim.Time(sec(62)), func() { _ = e.RestoreNode(2) })
	clock.RunUntil(sim.Time(sec(120)))
	if e.LiveExecutors() != 18 {
		t.Fatalf("live executors %d after restore, want 18", e.LiveExecutors())
	}
}

func TestNoStopAdaptsToNodeFailure(t *testing.T) {
	// System-level: run a tuned LogReg stream, kill a fast worker
	// mid-run, and verify the stream survives with a bounded queue (the
	// controller re-optimizes for the smaller cluster).
	clock := sim.NewClock()
	seed := rng.New(77)
	wl := workload.NewLogisticRegression()
	lo, hi := wl.RateBand()
	e, err := New(clock, Options{
		Workload: wl,
		Trace:    ratetrace.NewUniformBand(lo, hi, 5*time.Second, seed.Split("trace")),
		Seed:     seed.Split("engine"),
		Initial:  Config{BatchInterval: 10 * time.Second, Executors: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	clock.At(sim.Time(sec(1800)), func() { _ = e.FailNode(5) })
	clock.RunUntil(sim.Time(sec(3600)))
	if e.LiveExecutors() == 0 {
		t.Fatal("no executors after single-node failure")
	}
	if q := e.QueueLen(); q > 30 {
		t.Fatalf("queue %d after failure on a fixed config", q)
	}
}

func TestBlockIntervalCapsParallelism(t *testing.T) {
	// A block interval equal to the batch interval yields one task per
	// batch: parallelism collapses to ~1 regardless of executors.
	run := func(block time.Duration) time.Duration {
		clock, e := newEngine(t, func(o *Options) {
			o.Workload = workload.NewLogisticRegression()
			o.Trace = ratetrace.Constant{Rate: 5000}
			o.Bounds = Bounds{
				MinInterval: time.Second, MaxInterval: 40 * time.Second,
				MinExecutors: 1, MaxExecutors: 20,
				MinBlock: 50 * time.Millisecond, MaxBlock: 10 * time.Second,
			}
			o.Initial = Config{BatchInterval: 10 * time.Second, Executors: 16, BlockInterval: block}
		})
		clock.RunUntil(sim.Time(sec(120)))
		h := e.History()
		return h[len(h)-1].ProcessingTime
	}
	coarse := run(10 * time.Second)
	fine := run(200 * time.Millisecond)
	if coarse <= 2*fine {
		t.Fatalf("one-task batches (%v) should be far slower than 50-task batches (%v)", coarse, fine)
	}
}

func TestBlockIntervalDispatchOverhead(t *testing.T) {
	// Over-fine blocks multiply task dispatch cost.
	run := func(block time.Duration) time.Duration {
		clock, e := newEngine(t, func(o *Options) {
			o.Trace = ratetrace.Constant{Rate: 1000}
			o.Bounds = Bounds{
				MinInterval: time.Second, MaxInterval: 40 * time.Second,
				MinExecutors: 1, MaxExecutors: 20,
				MinBlock: 10 * time.Millisecond, MaxBlock: 10 * time.Second,
			}
			o.Initial = Config{BatchInterval: 10 * time.Second, Executors: 8, BlockInterval: block}
		})
		clock.RunUntil(sim.Time(sec(120)))
		h := e.History()
		return h[len(h)-1].ProcessingTime
	}
	fine := run(10 * time.Millisecond)    // 1000 tasks → +1.5s dispatch
	normal := run(500 * time.Millisecond) // 20 tasks → +0.03s
	if fine < normal+1200*time.Millisecond {
		t.Fatalf("1000-task dispatch (%v) not ≈1.5s above 20-task (%v)", fine, normal)
	}
}

func TestBoundsPinBlockIntervalWhenUntunable(t *testing.T) {
	b := DefaultBounds() // no block bounds
	cfg := b.Clamp(Config{BatchInterval: 10 * time.Second, Executors: 5, BlockInterval: 700 * time.Millisecond})
	if cfg.BlockInterval != 0 {
		t.Fatalf("untunable block interval not pinned to 0: %v", cfg.BlockInterval)
	}
	b.MinBlock, b.MaxBlock = 100*time.Millisecond, time.Second
	cfg = b.Clamp(Config{BatchInterval: 10 * time.Second, Executors: 5, BlockInterval: 5 * time.Second})
	if cfg.BlockInterval != time.Second {
		t.Fatalf("block interval not clamped: %v", cfg.BlockInterval)
	}
}
