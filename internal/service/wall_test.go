package service

import (
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/workload"
)

// TestWallSoakSmoke runs the trio as real HTTP servers on 127.0.0.1 with a
// live broker kill/restart, for a few wall seconds at high speedup. It
// asserts the same recovery invariants as the sim soak — this is the
// in-tree slice of what cmd/nostop-serve's CI soak does at larger scale.
func TestWallSoakSmoke(t *testing.T) {
	wl, err := workload.New("logreg")
	if err != nil {
		t.Fatal(err)
	}
	trace := ratetrace.NewUniformBand(600, 1200, 20*time.Second, rng.New(5).Split("trace"))
	c, err := NewCluster(ClusterConfig{
		Mode:     ModeWall,
		Seed:     5,
		Workload: wl,
		Trace:    trace,
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
		Speedup:  20,
		MaxFetch: 5000,
		RPC: ClientOptions{
			Timeout:          250 * time.Millisecond,
			MaxAttempts:      2,
			BackoffBase:      50 * time.Millisecond,
			BackoffMax:       200 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  500 * time.Millisecond,
		},
		WallTraceEvents: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1200 * time.Millisecond)
	if err := c.KillPeer(PeerBroker); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := c.RestartPeer(PeerBroker); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2300 * time.Millisecond)
	c.Stop()

	snaps := c.Snapshots()
	eng := snapshotByRole(t, snaps, PeerEngine)
	if eng.DegradedEnters < 1 {
		t.Fatalf("engine never degraded across a %v broker outage", 1500*time.Millisecond)
	}
	if eng.DegradedExits < 1 || eng.Degraded {
		t.Fatalf("engine did not recover: exits=%d degraded=%v", eng.DegradedExits, eng.Degraded)
	}
	if eng.LostRecords != 0 {
		t.Fatalf("%d records lost across broker restart", eng.LostRecords)
	}
	if eng.Batches == 0 {
		t.Fatal("engine cut no batches")
	}
	if v := Violations(snaps, 100, true); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	// The service-layer wall tracer must have captured the transitions.
	if tr := c.WallTracer(); tr == nil || tr.Len() == 0 {
		t.Fatal("wall trace sink captured no events")
	}
}
