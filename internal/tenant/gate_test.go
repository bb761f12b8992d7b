package tenant

import (
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// A request forwarded under a larger grant can still be pending when the
// grant shrinks. The gate must cut it to the new grant, keeping its other
// fields, before the next batch boundary applies it.
func TestGateCutsPendingRequestOnShrink(t *testing.T) {
	wl, err := workload.New("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim.NewClock(), engine.Options{
		Workload: wl,
		Trace:    ratetrace.Constant{Rate: 1000},
		Initial:  engine.Config{BatchInterval: 10 * time.Second, Executors: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	g := NewGate(eng, 1)
	g.setGrant(2)
	if err := g.Reconfigure(engine.Config{BatchInterval: 20 * time.Second, Executors: 4}); err != nil {
		t.Fatal(err)
	}
	if got := eng.TargetConfig().Executors; got != 2 {
		t.Fatalf("request clamped to %d executors, want the grant of 2", got)
	}
	if g.setGrant(1) {
		t.Error("cutting a pending request counted as a preemption")
	}
	want := engine.Config{BatchInterval: 20 * time.Second, Executors: 1}
	if got := eng.TargetConfig(); got != want {
		t.Errorf("after the shrink the engine is set to run %v, want %v", got, want)
	}
	if g.Demand() != 4 {
		t.Errorf("demand %d, want the controller's 4", g.Demand())
	}
}
