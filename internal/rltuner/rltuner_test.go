package rltuner

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func newEngine(t *testing.T, mutate func(*engine.Options)) (*sim.Clock, *engine.Engine) {
	t.Helper()
	clock := sim.NewClock()
	opts := engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 150000},
		Seed:     rng.New(21),
		Initial:  engine.Config{BatchInterval: 20 * time.Second, Executors: 10},
	}
	if mutate != nil {
		mutate(&opts)
	}
	eng, err := engine.New(clock, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	return clock, eng
}

func TestTunerLearnsWithinBounds(t *testing.T) {
	clock, eng := newEngine(t, nil)
	tuner, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := tuner.space.EngineBounds()
	violations := 0
	eng.AddListener(engine.ListenerFunc(func(bs engine.BatchStats) {
		if !bounds.Contains(bs.Config) {
			violations++
		}
	}))
	if err := tuner.Attach(); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(7200)))

	if violations > 0 {
		t.Errorf("%d batches ran outside the space's engine bounds", violations)
	}
	if tuner.steps == 0 {
		t.Error("no Q updates over a 2h run")
	}
	if tuner.applied < 2 {
		t.Errorf("ConfigureSteps=%d: expected the initial alignment plus at least one move", tuner.applied)
	}
	if eps := tuner.eps; !(eps < 0.25) {
		t.Errorf("epsilon %v did not decay from its default", eps)
	}
	// Rewards live in [-3, 0] and gamma is 0.6, so the contraction bound is
	// 3/(1-0.6) = 7.5 for every table entry.
	table := tuner.table
	for s := 0; s < numStates; s++ {
		for a := 0; a < table.Actions(); a++ {
			v := qValue(table, s, a)
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 7.5+1e-9 {
				t.Fatalf("Q(%d,%d)=%v escapes the reward-derived bound", s, a, v)
			}
		}
	}
}

func TestTunerSameSeedSameTrajectory(t *testing.T) {
	run := func() (cfg []byte, steps, applied, drains int) {
		clock, eng := newEngine(t, nil)
		tuner, err := New(eng, Options{Seed: rng.New(77)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tuner.Attach(); err != nil {
			t.Fatal(err)
		}
		clock.RunUntil(sim.Time(sec(3600)))
		b, err := json.Marshal(eng.Config())
		if err != nil {
			t.Fatal(err)
		}
		return b, tuner.steps, tuner.applied, tuner.drains
	}
	c1, s1, a1, d1 := run()
	c2, s2, a2, d2 := run()
	if string(c1) != string(c2) || s1 != s2 || a1 != a2 || d1 != d2 {
		t.Fatalf("same seed diverged: cfg %s vs %s, steps %d/%d, applied %d/%d, drains %d/%d",
			c1, c2, s1, s2, a1, a2, d1, d2)
	}
}

func TestTunerIntersectsSuppliedSpace(t *testing.T) {
	_, eng := newEngine(t, nil)
	// A space wider than the engine's bounds must be narrowed at New time.
	space := core.ConfigSpace{Version: core.SpaceVersion, Axes: []core.AxisSpec{
		{Param: core.ParamBatchInterval, Min: 0.5, Max: 120},
		{Param: core.ParamExecutors, Min: 1, Max: 500},
	}}
	tuner, err := New(eng, Options{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	b := eng.ConfigBounds()
	got := tuner.space
	ba, ok := got.Axis(core.ParamBatchInterval)
	if !ok {
		t.Fatal("batch axis lost in intersection")
	}
	if ba.Min < b.MinInterval.Seconds()-1e-9 || ba.Max > b.MaxInterval.Seconds()+1e-9 {
		t.Errorf("batch axis [%v, %v] escapes engine bounds", ba.Min, ba.Max)
	}
	ea, ok := got.Axis(core.ParamExecutors)
	if !ok {
		t.Fatal("executors axis lost in intersection")
	}
	if int(ea.Max) > b.MaxExecutors {
		t.Errorf("executors axis max %v above engine cap %d", ea.Max, b.MaxExecutors)
	}
}

func TestTunerDoubleAttach(t *testing.T) {
	_, eng := newEngine(t, nil)
	tuner, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := tuner.Attach(); err == nil {
		t.Error("second Attach accepted")
	}
}
