package core

import (
	"testing"

	"nostop/internal/engine"
	"nostop/internal/sim"
)

// faultWindow brackets a straggler on node 2 with the engine fault flag the
// way the faults injector does, without importing it.
func faultWindow(clock *sim.Clock, eng *engine.Engine, from, to float64, apply, revert func()) {
	clock.At(sim.Time(sec(from)), func() {
		apply()
		eng.SetFaultActive(true)
	})
	clock.At(sim.Time(sec(to)), func() {
		revert()
		eng.SetFaultActive(false)
	})
}

func TestFaultBatchesExcludedAndRecalibrated(t *testing.T) {
	clock, eng, ctl := scenario(t, nil, nil)
	faultWindow(clock, eng, 300, 420,
		func() { _ = eng.SetNodeSlowdown(2, 6) },
		func() { _ = eng.SetNodeSlowdown(2, 1) })
	clock.RunUntil(sim.Time(sec(900)))
	if ctl.FaultBatches() == 0 {
		t.Fatal("no batches excluded across a two-minute fault window")
	}
	if ctl.Recalibrations() != 1 {
		t.Fatalf("recalibrations = %d, want exactly 1 for one fault episode", ctl.Recalibrations())
	}
	// Every admitted measurement stayed clean, so the estimate must still
	// live inside the engine bounds (no fault-inflated runaway step).
	if b := eng.ConfigBounds(); !b.Contains(ctl.Estimate()) {
		t.Fatalf("estimate %v escaped bounds after fault episode", ctl.Estimate())
	}
}

func TestIngestSpikeFaultDoesNotTriggerRateReset(t *testing.T) {
	clock, eng, ctl := scenario(t, nil, nil)
	var resetsDuring int
	faultWindow(clock, eng, 300, 480,
		func() { eng.SetIngestBoost(2) },
		func() {
			resetsDuring = ctl.Resets()
			eng.SetIngestBoost(1)
		})
	clock.RunUntil(sim.Time(sec(600)))
	if resetsDuring != 0 {
		t.Fatalf("flagged ingest spike triggered %d rate resets mid-window", resetsDuring)
	}
	if ctl.FaultBatches() == 0 {
		t.Fatal("spike window batches were not excluded")
	}
}

func TestRecalibrationCountsPerEpisode(t *testing.T) {
	clock, eng, ctl := scenario(t, nil, nil)
	for _, w := range [][2]float64{{200, 260}, {400, 460}, {600, 660}} {
		w := w
		faultWindow(clock, eng, w[0], w[1],
			func() { _ = eng.SetNodeSlowdown(3, 5) },
			func() { _ = eng.SetNodeSlowdown(3, 1) })
	}
	clock.RunUntil(sim.Time(sec(1000)))
	if ctl.Recalibrations() != 3 {
		t.Fatalf("recalibrations = %d, want 3 (one per episode)", ctl.Recalibrations())
	}
}
