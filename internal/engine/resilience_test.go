package engine

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

func TestTaskRetrySucceedsWithinBudget(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(30)))
	e.SetTaskFailureRate(0.5)
	clock.RunUntil(sim.Time(sec(300)))
	e.SetTaskFailureRate(0)
	clock.RunUntil(sim.Time(sec(360)))
	if e.TaskRetries() == 0 {
		t.Fatal("no retries under a 50% task-failure rate")
	}
	var retried bool
	for _, b := range e.History() {
		if b.Attempts > 1 {
			retried = true
		}
		if b.Attempts < 1 {
			t.Fatalf("batch %d completed with %d attempts", b.ID, b.Attempts)
		}
	}
	if !retried {
		t.Fatal("no completed batch recorded more than one attempt")
	}
}

func TestRetryBackoffSurfacesAsSchedulingDelay(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(20)))
	e.SetTaskFailureRate(0.9)
	clock.RunUntil(sim.Time(sec(200)))
	e.SetTaskFailureRate(0)
	clock.RunUntil(sim.Time(sec(260)))
	var sawBackoff bool
	for _, b := range e.History() {
		if b.Attempts > 1 && b.SchedulingDelay >= retryBackoff {
			sawBackoff = true
		}
	}
	if !sawBackoff {
		t.Fatal("retried batches show no backoff in scheduling delay")
	}
}

// TestRetryBackoffDoublesToCap pins the backoff constants: with every
// attempt failing under an 8-attempt budget, each batch's seven retries
// wait 2s, 4s, 8s and 16s, then the 30s cap.
func TestRetryBackoffDoublesToCap(t *testing.T) {
	clock := sim.NewClock()
	tr := tracing.New(clock, 0)
	e, err := New(clock, Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 1000},
		Seed:     rng.New(7),
		Initial:  Config{BatchInterval: 5 * time.Second, Executors: 8},
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTaskMaxFailures(8)
	e.SetTaskFailureRate(1)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(600)))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct {
				BackoffMs int64 `json:"backoff_ms"`
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	backoffs := map[string][]int64{}
	for _, ev := range doc.TraceEvents {
		if strings.HasPrefix(ev.Name, "retry batch ") {
			backoffs[ev.Name] = append(backoffs[ev.Name], ev.Args.BackoffMs)
		}
	}
	want := []int64{2000, 4000, 8000, 16000, 30000, 30000, 30000}
	if got := backoffs["retry batch 0"]; !slices.Equal(got, want) {
		t.Fatalf("batch 0 backoffs %v ms, want %v", got, want)
	}
	for name, got := range backoffs {
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("%s backoffs %v ms, want a prefix of %v", name, got, want)
		}
	}
	if e.FailedBatches() == 0 {
		t.Fatalf("no batch exhausted its budget in %d retries", e.TaskRetries())
	}
}

func TestRetryBudgetExhaustionFailsBatchAndSheds(t *testing.T) {
	clock, e := newEngine(t, nil)
	e.SetTaskMaxFailures(2)
	clock.RunUntil(sim.Time(sec(30)))
	e.SetTaskFailureRate(1) // every attempt fails: budgets must exhaust
	clock.RunUntil(sim.Time(sec(120)))
	if e.FailedBatches() == 0 {
		t.Fatal("certain task failure produced no failed batches")
	}
	if e.FailedRecords() == 0 {
		t.Fatal("failed batches carried no records")
	}
	if e.ShedEvents() == 0 {
		t.Fatal("budget exhaustion did not trigger load shedding")
	}
	before := e.DroppedByCap()
	clock.RunUntil(sim.Time(sec(150)))
	if e.DroppedByCap() <= before {
		t.Fatal("shed cap is not dropping ingest")
	}
	// Recovery: the failure clears and the shed window expires; ingest
	// flows again and batches complete cleanly.
	e.SetTaskFailureRate(0)
	done := len(e.History())
	clock.RunUntil(sim.Time(sec(400)))
	if len(e.History()) <= done {
		t.Fatal("no batches completed after the failure cleared")
	}
}

func TestStragglerSlowdownStretchesBatches(t *testing.T) {
	run := func(slow bool) time.Duration {
		clock, e := newEngine(t, nil)
		// A gate above the 4x slowdown keeps speculation off, isolating the
		// raw straggler effect.
		e.SetSpeculativeMultiplier(5)
		if slow {
			// Straggle every worker so the slowdown cannot be dodged.
			for _, id := range []int{2, 3, 4, 5} {
				if err := e.SetNodeSlowdown(id, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		clock.RunUntil(sim.Time(sec(120)))
		h := e.History()
		return h[len(h)-1].ProcessingTime
	}
	healthy := run(false)
	straggled := run(true)
	if straggled < 2*healthy {
		t.Fatalf("4x straggler on all nodes: %v not well above healthy %v", straggled, healthy)
	}
}

func TestSpeculationDodgesStragglers(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(30)))
	// A single node 8x slower drags effective parallelism far enough for
	// speculation to trigger.
	if err := e.SetNodeSlowdown(2, 8); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(300)))
	if e.speculations == 0 {
		t.Fatal("no speculative re-executions under an 8x straggler")
	}
	var flagged bool
	for _, b := range e.History() {
		if b.Speculated {
			flagged = true
			if !b.FaultActive {
				t.Fatalf("speculated batch %d not flagged FaultActive", b.ID)
			}
		}
	}
	if !flagged {
		t.Fatal("no batch carries the Speculated flag")
	}
	// Clearing the slowdown clears the fault window.
	if err := e.SetNodeSlowdown(2, 1); err != nil {
		t.Fatal(err)
	}
	if e.FaultInEffect() {
		t.Fatal("fault still in effect after straggler cleared")
	}
}

func TestPartitionOutageReplaysThroughEngine(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(40)))
	if err := e.FailPartition(0); err != nil {
		t.Fatal(err)
	}
	if err := e.FailPartition(1); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(100)))
	if !e.FaultInEffect() {
		t.Fatal("partition outage not reported as a live fault")
	}
	for _, p := range []int{0, 1} {
		if err := e.RestorePartition(p); err != nil {
			t.Fatal(err)
		}
	}
	// Let the backlog drain, then stop ingest and drain completely.
	clock.RunUntil(sim.Time(sec(400)))
	e.Stop()
	for clock.Step() {
	}
	if lag := e.CommittedLag(); lag > e.Lag()+int64(e.QueueLen())*100000 {
		t.Fatalf("committed lag %d not accounted for", lag)
	}
	if e.FailedRecords() != 0 {
		t.Fatalf("outage lost %d records", e.FailedRecords())
	}
}

func TestFailPartitionValidatesIndex(t *testing.T) {
	_, e := newEngine(t, nil)
	if err := e.FailPartition(-1); err == nil {
		t.Fatal("negative partition accepted")
	}
	if err := e.FailPartition(1 << 20); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestIngestBoostRaisesObservedRate(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(60)))
	base := e.RecentRateMean()
	e.SetIngestBoost(2)
	clock.RunUntil(sim.Time(sec(180)))
	if boosted := e.RecentRateMean(); boosted < 1.5*base {
		t.Fatalf("boosted rate %.0f not well above base %.0f", boosted, base)
	}
	e.SetIngestBoost(0) // reset
	if e.FaultInEffect() {
		t.Fatal("fault still in effect after boost reset")
	}
}

func TestListenerPanicIsIsolated(t *testing.T) {
	clock, e := newEngine(t, nil)
	var after int
	e.AddListener(ListenerFunc(func(bs BatchStats) {
		panic("misbehaving listener")
	}))
	e.AddListener(ListenerFunc(func(bs BatchStats) {
		after++ // must still run after the panicking listener
	}))
	clock.RunUntil(sim.Time(sec(60)))
	if e.ListenerPanics() == 0 {
		t.Fatal("listener panics not counted")
	}
	if after == 0 {
		t.Fatal("listener after the panicking one never ran")
	}
	if len(e.History()) == 0 {
		t.Fatal("simulation died with the panicking listener")
	}
}

func TestFaultActiveFlagsBatchesDuringNodeFailure(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.At(sim.Time(sec(30)), func() { _ = e.FailNode(3) })
	clock.At(sim.Time(sec(90)), func() { _ = e.RestoreNode(3) })
	clock.RunUntil(sim.Time(sec(200)))
	var during, cleanAfter bool
	for _, b := range e.History() {
		switch {
		case b.DoneAt > sim.Time(sec(30)) && b.DoneAt < sim.Time(sec(90)):
			if b.FaultActive {
				during = true
			}
		case b.CutAt > sim.Time(sec(100)):
			if !b.FaultActive {
				cleanAfter = true
			}
		}
	}
	if !during {
		t.Fatal("no batch flagged FaultActive during the node failure")
	}
	if !cleanAfter {
		t.Fatal("batches after restoration still flagged FaultActive")
	}
}
