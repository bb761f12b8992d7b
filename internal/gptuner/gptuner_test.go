package gptuner

import (
	"encoding/json"
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

func TestTunerSearchesWithinBounds(t *testing.T) {
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
	clock.RunUntil(sim.Time(sec(14400)))

	if violations > 0 {
		t.Errorf("%d batches ran outside the space's engine bounds", violations)
	}
	evals := tuner.evals
	if len(evals) < 2 {
		t.Fatalf("only %d evaluations over a 4h run", len(evals))
	}
	for i, e := range evals {
		if !(e.Y > 0) {
			t.Errorf("evaluation %d: non-positive objective %v", i, e.Y)
		}
		if !bounds.Contains(e.Config.Engine()) {
			t.Errorf("evaluation %d: config %+v outside engine bounds", i, e.Config)
		}
	}
	best, ok := tuner.Best()
	if !ok {
		t.Fatal("no best evaluation")
	}
	for _, e := range evals {
		if e.Y < best.Y {
			t.Errorf("Best missed evaluation with objective %v < %v", e.Y, best.Y)
		}
	}
	if tuner.done {
		// A finished search must have left the engine on the best config.
		if got := eng.Config(); got != bounds.Clamp(best.Config.Engine()) {
			t.Errorf("finished on %+v, best is %+v", got, best.Config.Engine())
		}
	}
}

func TestTunerSameSeedSameTrajectory(t *testing.T) {
	run := func() ([]byte, []byte, int, int) {
		clock, eng := newEngine(t, nil)
		tuner, err := New(eng, Options{Seed: rng.New(55)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tuner.Attach(); err != nil {
			t.Fatal(err)
		}
		clock.RunUntil(sim.Time(sec(7200)))
		cfg, err := json.Marshal(eng.Config())
		if err != nil {
			t.Fatal(err)
		}
		evals, err := json.Marshal(tuner.evals)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, evals, tuner.applied, tuner.gated
	}
	c1, e1, a1, g1 := run()
	c2, e2, a2, g2 := run()
	if string(c1) != string(c2) || string(e1) != string(e2) || a1 != a2 || g1 != g2 {
		t.Fatalf("same seed diverged: cfg %s vs %s, applied %d/%d, gated %d/%d",
			c1, c2, a1, a2, g1, g2)
	}
}

func TestTunerValidation(t *testing.T) {
	_, eng := newEngine(t, nil)
	if _, err := New(eng, Options{InitialDesign: 10, MaxEvaluations: 5}); err == nil {
		t.Error("MaxEvaluations below InitialDesign accepted")
	}
	bad := core.ConfigSpace{Version: "v0", Axes: []core.AxisSpec{
		{Param: core.ParamBatchInterval, Min: 1, Max: 40},
		{Param: core.ParamExecutors, Min: 1, Max: 20},
	}}
	if _, err := New(eng, Options{Space: bad}); err == nil {
		t.Error("invalid space accepted")
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
