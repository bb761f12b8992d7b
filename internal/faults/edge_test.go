package faults

import (
	"strings"
	"testing"
	"time"

	"nostop/internal/sim"
)

// TestOverlappingWindowsSameNode pins the overlap contract on a single
// node: same-kind windows are rejected by Validate, while different kinds
// targeting the same node may overlap — they manipulate disjoint engine
// state (failure flag vs. slowdown factor) — and both revert cleanly.
func TestOverlappingWindowsSameNode(t *testing.T) {
	overlapSameKind := Plan{
		{Kind: Straggler, At: sim.Time(sec(10)), Duration: 30 * time.Second, NodeID: 3, Factor: 2},
		{Kind: Straggler, At: sim.Time(sec(20)), Duration: 30 * time.Second, NodeID: 3, Factor: 4},
	}
	if err := overlapSameKind.Validate(); err == nil {
		t.Fatal("same-kind overlap on one node validated")
	}

	// Cross-kind overlap on node 3: crash [20s, 80s) spans a straggler
	// window [40s, 60s) entirely.
	crossKind := Plan{
		{Kind: NodeCrash, At: sim.Time(sec(20)), Duration: 60 * time.Second, NodeID: 3},
		{Kind: Straggler, At: sim.Time(sec(40)), Duration: 20 * time.Second, NodeID: 3, Factor: 3},
	}
	if err := crossKind.Validate(); err != nil {
		t.Fatalf("cross-kind overlap on one node rejected: %v", err)
	}
	clock, e := newEngine(t, 21)
	inj, err := Attach(e, crossKind)
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(50)))
	if inj.active != 2 {
		t.Fatalf("active %d inside the nested windows, want 2", inj.active)
	}
	clock.RunUntil(sim.Time(sec(120)))
	if inj.active != 0 {
		t.Fatalf("active %d after both windows, want 0", inj.active)
	}
	if e.FaultInEffect() {
		t.Fatal("fault flag stuck after nested same-node windows")
	}
	if inj.Injected() != 2 {
		t.Fatalf("injected %d, want 2", inj.Injected())
	}
}

// TestWindowEndingAtBatchCut pins event ordering when a fault window ends
// exactly at a batch-cut instant. The injector's end event is enqueued at
// Attach time, the 10s cut event only when the 5s cut schedules it, so
// same-instant FIFO runs recovery first: the batch cut at 10s is NOT
// fault-flagged. Extending the window past the cut by any amount flips it.
func TestWindowEndingAtBatchCut(t *testing.T) {
	flagAt10s := func(dur time.Duration) bool {
		clock, e := newEngine(t, 33) // 5s batch interval
		if _, err := Attach(e, Plan{
			{Kind: TaskFailures, At: sim.Time(sec(7)), Duration: dur, Prob: 0.2},
		}); err != nil {
			t.Fatal(err)
		}
		clock.RunUntil(sim.Time(sec(30)))
		for _, b := range e.History() {
			if b.CutAt == sim.Time(sec(10)) {
				return b.FaultActive
			}
		}
		t.Fatalf("no batch cut at 10s in history")
		return false
	}
	if flagAt10s(3 * time.Second) {
		t.Fatal("window ending exactly at the cut flagged the batch cut at that instant")
	}
	if !flagAt10s(3*time.Second + time.Millisecond) {
		t.Fatal("window extending past the cut did not flag the batch")
	}
}

// TestUnobservedInjectorFailingMidPlan exercises the nil-sink paths: an
// injector that is never Observed (and one Observed with nil arguments
// mid-plan) must survive a failing injection — nil counter Inc and nil
// tracer Instant are no-ops, and the failure lands on the timeline.
func TestUnobservedInjectorFailingMidPlan(t *testing.T) {
	clock, e := newEngine(t, 5)
	plan := Plan{
		// Node 99 does not exist: both the injection at 10s and the
		// recovery at 25s fail.
		{Kind: NodeCrash, At: sim.Time(sec(10)), Duration: 15 * time.Second, NodeID: 99},
		{Kind: IngestSpike, At: sim.Time(sec(40)), Duration: 15 * time.Second, Factor: 2},
	}
	inj, err := Attach(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(30))) // past the failing window, no Observe called
	if inj.Injected() != 0 {
		t.Fatalf("injected %d after a rejected window, want 0", inj.Injected())
	}
	if inj.active != 0 {
		t.Fatalf("active %d after a rejected window, want 0", inj.active)
	}
	if !strings.Contains(inj.String(), "FAILED") {
		t.Fatalf("timeline does not record the failure:\n%s", inj.String())
	}

	// Observing with nil sinks mid-plan must be equally inert.
	inj.Observe(nil, nil)
	clock.RunUntil(sim.Time(sec(60)))
	if inj.Injected() != 1 {
		t.Fatalf("injected %d after the valid window, want 1", inj.Injected())
	}
	if e.FaultInEffect() {
		t.Fatal("fault flag stuck after plan end")
	}
	if got := len(inj.timeline); got != 4 {
		t.Fatalf("timeline has %d entries, want 4 (2 failures + inject/recover)", got)
	}
}
