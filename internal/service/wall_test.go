package service

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
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

// TestWallStopWaitsForExchanges stops a wall cluster while exchanges held
// by a link delay are in flight. Stop must cancel them and return once
// their goroutines have exited, so the tracer can be read without its
// lock: no late reply may record a breaker transition after Stop (the race
// detector sees the write if one does), and none is recorded in the time a
// held exchange would have taken to finish.
func TestWallStopWaitsForExchanges(t *testing.T) {
	wl, err := workload.New("logreg")
	if err != nil {
		t.Fatal(err)
	}
	const delay = 300 * time.Millisecond
	c, err := NewCluster(ClusterConfig{
		Mode:     ModeWall,
		Seed:     9,
		Workload: wl,
		Trace:    ratetrace.NewUniformBand(600, 1200, 20*time.Second, rng.New(9).Split("trace")),
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
		Speedup:  20,
		MaxFetch: 5000,
		// One failed attempt opens a breaker, so a held exchange that
		// fails against a stopped server would record a transition.
		RPC: ClientOptions{
			Timeout:          2 * delay,
			MaxAttempts:      1,
			BackoffBase:      10 * time.Millisecond,
			BackoffMax:       20 * time.Millisecond,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Hour,
		},
		WallTraceEvents: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	for _, link := range [][2]string{{PeerController, PeerEngine}, {PeerEngine, PeerBroker}} {
		if err := c.SetLinkFault(link[0], link[1], false, 0, delay); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(delay / 2) // the polls sent since are held in their delay
	start := time.Now()
	c.Stop()
	if took := time.Since(start); took >= delay {
		t.Errorf("Stop took %v, as long as the link delay %v it should cut short", took, delay)
	}
	n := c.WallTracer().Len()
	time.Sleep(2 * delay)
	if got := c.WallTracer().Len(); got != n {
		t.Fatalf("the wall tracer went from %d to %d events after Stop returned", n, got)
	}
}

// TestWallNetStopDropsReplies: Stop cuts short an exchange held in its
// link delay and one held at the server, waits for both, and neither
// calls done; a round trip after Stop starts nothing.
func TestWallNetStopDropsReplies(t *testing.T) {
	arrived := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived) // only the engine link's request reaches the server
		<-r.Context().Done()
	}))
	defer srv.Close()
	n := NewWallNet(nil, time.Hour)
	n.SetURL(PeerEngine, srv.URL)
	n.SetLink(PeerController, PeerBroker, LinkFault{Delay: time.Hour})
	var calls atomic.Int32
	locked := func(fn func()) { fn() }
	done := func(Response, error) { calls.Add(1) }
	req := Request{Method: "GET", Path: "/status"}
	n.Transport(PeerController, PeerEngine, locked).RoundTrip(req, done)
	n.Transport(PeerController, PeerBroker, locked).RoundTrip(req, done)
	<-arrived
	n.Stop()
	n.Transport(PeerController, PeerEngine, locked).RoundTrip(req, done)
	n.Stop()
	if c := calls.Load(); c != 0 {
		t.Fatalf("done called %d times across Stop, want none", c)
	}
}
