package faults

import (
	"fmt"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func newEngine(t *testing.T, seedN uint64) (*sim.Clock, *engine.Engine) {
	t.Helper()
	clock := sim.NewClock()
	e, err := engine.New(clock, engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 1000},
		Seed:     rng.New(seedN),
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return clock, e
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"empty", nil, true},
		{"good mix", Plan{
			{Kind: NodeCrash, At: sim.Time(sec(10)), Duration: time.Minute, NodeID: 3},
			{Kind: Straggler, At: sim.Time(sec(10)), Duration: time.Minute, NodeID: 4, Factor: 3},
			{Kind: TaskFailures, At: sim.Time(sec(100)), Duration: time.Minute, Prob: 0.3},
			{Kind: PartitionOutage, At: sim.Time(sec(10)), Duration: time.Minute, Partition: 2},
			{Kind: IngestSpike, At: sim.Time(sec(200)), Duration: time.Minute, Factor: 2},
		}, true},
		{"zero duration", Plan{{Kind: NodeCrash, Duration: 0, NodeID: 2}}, false},
		{"bad straggle factor", Plan{{Kind: Straggler, Duration: time.Minute, NodeID: 2, Factor: 1}}, false},
		{"bad probability", Plan{{Kind: TaskFailures, Duration: time.Minute, Prob: 1.5}}, false},
		{"negative partition", Plan{{Kind: PartitionOutage, Duration: time.Minute, Partition: -1}}, false},
		{"same-target overlap", Plan{
			{Kind: NodeCrash, At: sim.Time(sec(10)), Duration: time.Minute, NodeID: 3},
			{Kind: NodeCrash, At: sim.Time(sec(30)), Duration: time.Minute, NodeID: 3},
		}, false},
		{"global-knob overlap", Plan{
			{Kind: IngestSpike, At: sim.Time(sec(10)), Duration: time.Minute, Factor: 2},
			{Kind: IngestSpike, At: sim.Time(sec(30)), Duration: time.Minute, Factor: 3},
		}, false},
		{"distinct targets may overlap", Plan{
			{Kind: NodeCrash, At: sim.Time(sec(10)), Duration: time.Minute, NodeID: 3},
			{Kind: NodeCrash, At: sim.Time(sec(30)), Duration: time.Minute, NodeID: 4},
		}, true},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestInjectorAppliesAndReverts(t *testing.T) {
	clock, e := newEngine(t, 7)
	plan := Plan{
		{Kind: NodeCrash, At: sim.Time(sec(20)), Duration: 30 * time.Second, NodeID: 3},
		{Kind: TaskFailures, At: sim.Time(sec(70)), Duration: 30 * time.Second, Prob: 0.9},
		{Kind: PartitionOutage, At: sim.Time(sec(120)), Duration: 30 * time.Second, Partition: 1},
	}
	inj, err := Attach(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(40)))
	if e.LiveExecutors() >= 8 && e.FaultInEffect() == false {
		t.Fatal("node crash window not applied")
	}
	if inj.active != 1 {
		t.Fatalf("active %d during crash window, want 1", inj.active)
	}
	clock.RunUntil(sim.Time(sec(60)))
	if inj.active != 0 {
		t.Fatalf("active %d after crash window, want 0", inj.active)
	}
	if e.FaultInEffect() {
		t.Fatal("fault flag stuck after recovery")
	}
	clock.RunUntil(sim.Time(sec(200)))
	if inj.Injected() != len(plan) {
		t.Fatalf("injected %d windows, want %d", inj.Injected(), len(plan))
	}
	if got := len(inj.timeline); got != 2*len(plan) {
		t.Fatalf("timeline has %d entries, want %d", got, 2*len(plan))
	}
	// Batches inside fault windows are flagged.
	var flagged int
	for _, b := range e.History() {
		if b.FaultActive {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no batch flagged FaultActive across three fault windows")
	}
}

func TestAttachRejectsBadPlan(t *testing.T) {
	_, e := newEngine(t, 7)
	if _, err := Attach(e, Plan{{Kind: Straggler, Duration: time.Minute, NodeID: 2, Factor: 0.5}}); err == nil {
		t.Fatal("invalid plan accepted")
	}
	if _, err := Attach(nil, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestChaosPlanValidatesAndScales(t *testing.T) {
	seed := rng.New(42)
	plan := Chaos(seed.Split("a"), ChaosOptions{Horizon: time.Hour})
	if len(plan) == 0 {
		t.Fatal("chaos generated an empty plan over an hour")
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("chaos plan invalid: %v", err)
	}
	for _, f := range plan {
		if f.At < sim.Time(15*time.Minute) {
			t.Fatalf("fault %v starts inside the warmup quarter", f)
		}
		if f.End() > sim.Time(time.Hour) {
			t.Fatalf("fault %v runs past the horizon", f)
		}
	}
	if Chaos(seed.Split("b"), ChaosOptions{}) != nil {
		t.Fatal("zero horizon should generate no plan")
	}
}

// TestChaosPlanShape pins the generator's fixed shape over 200 seeds: the
// first quarter of the horizon is fault-free, windows last 1–4 minutes
// unless clipped at the horizon (and never under 30s), crashes and
// stragglers hit the Table 2 workers, and outages hit partitions 0..7.
func TestChaosPlanShape(t *testing.T) {
	const horizon = time.Hour
	kinds := map[Kind]int{}
	for s := uint64(1); s <= 200; s++ {
		plan := Chaos(rng.New(s).Split("chaos"), ChaosOptions{Horizon: horizon})
		for _, f := range plan {
			kinds[f.Kind]++
			if f.At < sim.Time(horizon/4) {
				t.Fatalf("seed %d: fault %v starts inside the warmup quarter", s, f)
			}
			clipped := f.End() == sim.Time(horizon)
			if f.Duration > 4*time.Minute || f.Duration < 30*time.Second ||
				(!clipped && f.Duration < time.Minute) {
				t.Fatalf("seed %d: fault %v lasts %v", s, f, f.Duration)
			}
			switch f.Kind {
			case NodeCrash, Straggler:
				if f.NodeID < 2 || f.NodeID > 5 {
					t.Fatalf("seed %d: fault %v hits node %d outside {2, 3, 4, 5}", s, f, f.NodeID)
				}
			case PartitionOutage:
				if f.Partition < 0 || f.Partition >= 8 {
					t.Fatalf("seed %d: outage %v hits partition %d", s, f, f.Partition)
				}
			}
		}
	}
	for _, k := range []Kind{NodeCrash, Straggler, PartitionOutage} {
		if kinds[k] == 0 {
			t.Fatalf("200 seeds drew no %v fault", k)
		}
	}
}

// TestChaosDeterminism is the reproducibility gate: identical seeds must
// produce byte-identical fault timelines and batch histories.
func TestChaosDeterminism(t *testing.T) {
	run := func() (string, string) {
		clock, e := newEngine(t, 99)
		plan := Chaos(rng.New(123).Split("chaos"), ChaosOptions{Horizon: 30 * time.Minute})
		inj, err := Attach(e, plan)
		if err != nil {
			t.Fatal(err)
		}
		clock.RunUntil(sim.Time(30 * time.Minute))
		return inj.String(), fmt.Sprintf("%+v", e.History())
	}
	tl1, hist1 := run()
	tl2, hist2 := run()
	if tl1 != tl2 {
		t.Fatalf("fault timelines differ across identical seeds:\n--- run 1 ---\n%s--- run 2 ---\n%s", tl1, tl2)
	}
	if hist1 != hist2 {
		t.Fatal("batch histories differ across identical seeds")
	}
	if tl1 == "" {
		t.Fatal("chaos run injected nothing")
	}
	// A different seed must actually change the plan.
	other := Chaos(rng.New(124).Split("chaos"), ChaosOptions{Horizon: 30 * time.Minute})
	this := Chaos(rng.New(123).Split("chaos"), ChaosOptions{Horizon: 30 * time.Minute})
	if fmt.Sprint(other) == fmt.Sprint(this) {
		t.Fatal("different seeds produced identical chaos plans")
	}
}
