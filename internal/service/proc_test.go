package service

import (
	"strings"
	"testing"
	"time"

	"nostop/internal/faults"
	"nostop/internal/sim"
)

// A Cluster is a faults.ProcTarget without adapters — the chaos injector
// drives it directly.
var _ faults.ProcTarget = (*Cluster)(nil)

// TestProcInjectorDrivesCluster runs the sim soak with the chaos expressed
// as a faults.ProcPlan instead of ad-hoc clock callbacks: the scripted
// kill/restart and link-outage windows produce the same degradation and
// recovery transitions, and the injector timeline records them.
func TestProcInjectorDrivesCluster(t *testing.T) {
	c := newSoakCluster(t, 42)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	plan := faults.ProcPlan{
		{Kind: faults.PeerKill, At: sim.Time(60 * time.Second), Duration: 30 * time.Second, Peer: PeerBroker},
		{Kind: faults.LinkRefuse, At: sim.Time(150 * time.Second), Duration: 20 * time.Second, From: PeerController, To: PeerEngine},
	}
	inj, err := faults.AttachProc(c, faults.ClockSchedule{Clock: c.Clock()}, plan)
	if err != nil {
		t.Fatal(err)
	}
	inj.Observe(c.Registry(), nil)
	c.RunSim(300 * time.Second)
	c.Stop()

	snaps := c.Snapshots()
	eng := snapshotByRole(t, snaps, PeerEngine)
	ctl := snapshotByRole(t, snaps, PeerController)
	if eng.DegradedEnters < 1 || eng.DegradedExits < 1 || eng.Degraded {
		t.Fatalf("engine degradation transitions: enters=%d exits=%d degraded=%v",
			eng.DegradedEnters, eng.DegradedExits, eng.Degraded)
	}
	if ctl.DegradedEnters < 1 || ctl.Frozen {
		t.Fatalf("controller freeze transitions: enters=%d frozen=%v", ctl.DegradedEnters, ctl.Frozen)
	}
	if eng.LostRecords != 0 {
		t.Fatalf("%d records lost", eng.LostRecords)
	}
	injected := 0
	for _, line := range strings.Split(inj.String(), "\n") {
		if strings.Contains(line, " inject ") && !strings.Contains(line, "FAILED") {
			injected++
		}
	}
	if injected != len(plan) {
		t.Fatalf("injector applied %d windows, want %d:\n%s", injected, len(plan), inj)
	}
	if v := Violations(snaps, 50, true); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	if !strings.Contains(c.Registry().String(), `nostop_proc_faults_injected_total{kind="peer-kill"} 1`) {
		t.Error("proc chaos counters missing from exposition")
	}
}
