package service

import (
	"encoding/json"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// newSoakCluster builds the canonical sim-mode chaos scenario used by the
// soak, determinism, and invariant tests: a broker kill/restart window (the
// engine's degradation path) plus a controller→engine link outage (the
// controller's freeze path).
func newSoakCluster(t testing.TB, seed uint64) *Cluster {
	t.Helper()
	wl, err := workload.New("logreg")
	if err != nil {
		t.Fatal(err)
	}
	trace := ratetrace.NewUniformBand(600, 1200, 20*time.Second, rng.New(seed).Split("trace"))
	c, err := NewCluster(ClusterConfig{
		Mode:     ModeSim,
		Seed:     seed,
		Workload: wl,
		Trace:    trace,
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
		MaxFetch: 5000, // small budget so post-outage recovery visibly sheds
		RPC: ClientOptions{
			Timeout:          300 * time.Millisecond,
			MaxAttempts:      2,
			BackoffBase:      100 * time.Millisecond,
			BackoffMax:       time.Second,
			BreakerThreshold: 3,
			BreakerCooldown:  2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scheduleSoakChaos installs the chaos plan on the shared clock.
func scheduleSoakChaos(c *Cluster) {
	clock := c.Clock()
	at := func(s int, fn func()) { clock.At(sim.Time(s)*sim.Time(time.Second), fn) }
	at(60, func() { c.KillPeer(PeerBroker) })
	at(90, func() { c.RestartPeer(PeerBroker) })
	at(150, func() { c.SetLinkFault(PeerController, PeerEngine, true, 0, 0) })
	at(170, func() { c.ClearLinkFault(PeerController, PeerEngine) })
}

func snapshotByRole(t *testing.T, snaps []InvariantSnapshot, role string) InvariantSnapshot {
	t.Helper()
	for _, s := range snaps {
		if s.Role == role {
			return s
		}
	}
	t.Fatalf("no %s snapshot in %v", role, snaps)
	return InvariantSnapshot{}
}

func TestSimSoakChaosRecovery(t *testing.T) {
	c := newSoakCluster(t, 42)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	scheduleSoakChaos(c)
	c.RunSim(300 * time.Second)
	c.Stop()

	snaps := c.Snapshots()
	eng := snapshotByRole(t, snaps, PeerEngine)
	ctl := snapshotByRole(t, snaps, PeerController)
	brk := snapshotByRole(t, snaps, PeerBroker)

	// Engine: entered and exited degraded (shedding) mode across the broker
	// outage, and lost nothing past committed offsets.
	if eng.DegradedEnters < 1 || eng.DegradedExits < 1 {
		t.Fatalf("engine degradation transitions: enters=%d exits=%d, want ≥1 each",
			eng.DegradedEnters, eng.DegradedExits)
	}
	if eng.Degraded {
		t.Fatal("engine still degraded at soak end")
	}
	if eng.LostRecords != 0 {
		t.Fatalf("%d records lost past committed offsets", eng.LostRecords)
	}
	if eng.Batches == 0 || eng.FetchedRecords == 0 {
		t.Fatalf("engine did no work: batches=%d fetched=%d", eng.Batches, eng.FetchedRecords)
	}

	// Controller: froze during the link outage, resumed, and re-calibrated
	// its SPSA measurements afterwards.
	if ctl.DegradedEnters < 1 || ctl.DegradedExits < 1 {
		t.Fatalf("controller freeze transitions: enters=%d exits=%d, want ≥1 each",
			ctl.DegradedEnters, ctl.DegradedExits)
	}
	if ctl.Frozen {
		t.Fatal("controller still frozen at soak end")
	}
	if ctl.Recalibrations < 1 {
		t.Fatalf("controller recalibrations = %d, want ≥1", ctl.Recalibrations)
	}
	if ctl.Iterations == 0 {
		t.Fatal("controller completed no SPSA iterations")
	}
	if ctl.ListenerPanicCount != 0 {
		t.Fatalf("%d controller callback panics", ctl.ListenerPanicCount)
	}

	// Broker: restarted once, offsets sane.
	if brk.Epoch != 1 {
		t.Fatalf("broker epoch %d, want 1 after one restart", brk.Epoch)
	}
	if brk.CommittedOffset > brk.HeadOffset {
		t.Fatalf("broker committed %d beyond head %d", brk.CommittedOffset, brk.HeadOffset)
	}

	if v := Violations(snaps, 50, true); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}

	// Degradation/retry/breaker transitions must be visible in the metrics.
	exposition := c.Registry().String()
	for _, want := range []string{
		`nostop_service_degraded_transitions_total{component="engine",to="degraded"}`,
		`nostop_service_degraded_transitions_total{component="controller",to="frozen"}`,
		"nostop_rpc_breaker_transitions_total",
		"nostop_rpc_retries_total",
		"nostop_service_chaos_kills_total 1",
		"nostop_service_chaos_restarts_total 1",
	} {
		if !contains(exposition, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

// TestSimSoakDeterminism: the identical chaos scenario replays
// byte-identically across same-seed runs — metrics exposition and invariant
// snapshots compared as bytes.
func TestSimSoakDeterminism(t *testing.T) {
	run := func() (string, string) {
		c := newSoakCluster(t, 2026)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		scheduleSoakChaos(c)
		c.RunSim(300 * time.Second)
		c.Stop()
		snaps, err := json.Marshal(c.Snapshots())
		if err != nil {
			t.Fatal(err)
		}
		return c.Registry().String(), string(snaps)
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 {
		t.Fatal("metrics exposition diverged across same-seed runs")
	}
	if s1 != s2 {
		t.Fatalf("invariant snapshots diverged:\n%s\n---\n%s", s1, s2)
	}
	if m1 == "" {
		t.Fatal("empty metrics exposition")
	}
}

// TestSimSoakSeedSensitivity: different seeds genuinely produce different
// histories (the determinism test is not vacuous).
func TestSimSoakSeedSensitivity(t *testing.T) {
	run := func(seed uint64) string {
		c := newSoakCluster(t, seed)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		c.RunSim(120 * time.Second)
		c.Stop()
		return c.Registry().String()
	}
	if run(1) == run(2) {
		t.Fatal("seeds 1 and 2 produced identical metric expositions")
	}
}

// TestEngineRestartRedelivery: killing and restarting the *engine* makes the
// broker rewind to the committed watermark for the new consumer incarnation;
// nothing is lost, the uncommitted span is redelivered.
func TestEngineRestartRedelivery(t *testing.T) {
	c := newSoakCluster(t, 7)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	clock := c.Clock()
	clock.At(sim.Time(40*time.Second), func() { c.KillPeer(PeerEngine) })
	clock.At(sim.Time(55*time.Second), func() { c.RestartPeer(PeerEngine) })
	c.RunSim(150 * time.Second)
	c.Stop()

	snaps := c.Snapshots()
	eng := snapshotByRole(t, snaps, PeerEngine)
	brk := snapshotByRole(t, snaps, PeerBroker)
	if eng.Epoch != 1 {
		t.Fatalf("engine epoch %d, want 1", eng.Epoch)
	}
	if eng.LostRecords != 0 {
		t.Fatalf("%d records lost across engine restart", eng.LostRecords)
	}
	if brk.ConsumerRewinds != 1 {
		t.Fatalf("broker consumer rewinds = %d, want 1", brk.ConsumerRewinds)
	}
	if eng.Batches == 0 {
		t.Fatal("restarted engine cut no batches")
	}
	if v := Violations(snaps, 50, true); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

// TestControllerFollowsEngineRestart: batch IDs restart at 0 in every
// engine incarnation, so a controller whose cursor points into the old
// incarnation's ID space must notice the restart and take the new engine's
// batches, not wait until the new IDs overtake the old cursor.
func TestControllerFollowsEngineRestart(t *testing.T) {
	c := newSoakCluster(t, 7)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	clock := c.Clock()
	restart := sim.Time(615 * time.Second)
	clock.At(sim.Time(600*time.Second), func() { c.KillPeer(PeerEngine) })
	clock.At(restart, func() { c.RestartPeer(PeerEngine) })
	ctl := c.Component(PeerController).(*ControllerService)
	var after []engine.BatchStats // delivered to the controller after the restart
	ctl.proxy.AddListener(engine.ListenerFunc(func(bs engine.BatchStats) {
		if clock.Now() > restart {
			after = append(after, bs)
		}
	}))
	c.RunSim(1200 * time.Second)
	c.Stop()

	history := c.Component(PeerEngine).(*EngineService).Engine().History()
	if len(history) < 50 {
		t.Fatalf("restarted engine completed %d batches, want a long run", len(history))
	}
	last := history[len(history)-1].ID
	// The controller polls every second; it may trail by the batch the
	// engine completed since its last poll.
	if cursor := ctl.last.BatchID; cursor < last-1 || cursor > last {
		t.Fatalf("controller cursor %d, restarted engine's last batch %d", cursor, last)
	}
	if len(after) < len(history)-1 {
		t.Fatalf("controller was delivered %d batches after the restart; the new engine completed %d",
			len(after), len(history))
	}
	for i, bs := range after {
		if bs.ID != int64(i) {
			t.Fatalf("delivery %d after the restart was batch %d: want the new engine's IDs in order from 0", i, bs.ID)
		}
	}
	// The new engine's first batches carry the backlog the broker
	// redelivers; the controller saw none of them cut, so they reach the
	// core marked FaultActive, however many empty polls came first.
	if !after[0].FaultActive {
		t.Fatalf("first delivery after the restart (batch %d) not marked FaultActive", after[0].ID)
	}
}
