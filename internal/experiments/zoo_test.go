package experiments

import (
	"bytes"
	"strconv"
	"testing"

	"nostop/internal/controllers"
	"nostop/internal/core"
	"nostop/internal/fleet"
)

func TestZooSpaceDeclaresWidenedAxes(t *testing.T) {
	space, err := ZooSpace("logreg")
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Validate(); err != nil {
		t.Fatalf("zoo space invalid: %v", err)
	}
	for _, p := range []string{core.ParamBatchInterval, core.ParamExecutors, core.ParamBlockInterval,
		core.ParamIngestCap, core.ParamRetryBudget, core.ParamSpecThreshold} {
		if _, ok := space.Axis(p); !ok {
			t.Errorf("zoo space missing axis %s", p)
		}
	}
	if _, err := ZooSpace("nosuch"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestZooLineupIsRegistered(t *testing.T) {
	for _, ctl := range ZooControllers() {
		if _, ok := controllers.Lookup(ctl); !ok {
			t.Errorf("zoo controller %s not in the controller registry", ctl)
		}
	}
}

func TestControllerZooShapeAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("five-controller chaos sweep")
	}
	cfg := quick()
	cfg.Repetitions = 2
	tab, err := ControllerZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctls := ZooControllers()
	if len(tab.Rows) != len(ctls) {
		t.Fatalf("zoo table has %d rows, want %d", len(tab.Rows), len(ctls))
	}
	if len(tab.Header) != 9 {
		t.Fatalf("zoo table has %d columns, want 9", len(tab.Header))
	}
	for i, ctl := range ctls {
		if got := cell(t, tab, i, 0); got != ctl {
			t.Errorf("row %d is %s, want %s", i, got, ctl)
		}
	}
	// Every reconfiguring controller moved at least once under chaos.
	// Back-pressure is exempt: it throttles the ingest cap and never touches
	// the engine configuration.
	for i, ctl := range ctls {
		if ctl == fleet.ControllerStatic || ctl == fleet.ControllerBackPressure {
			continue
		}
		if rc, err := strconv.ParseFloat(cell(t, tab, i, 4), 64); err != nil || rc <= 0 {
			t.Errorf("%s reconfigs column %q: err=%v", ctl, cell(t, tab, i, 4), err)
		}
	}

	// Same config, different parallelism: the rendered report must be
	// byte-identical (the zoo-smoke CI gate in miniature).
	serialCfg := cfg
	serialCfg.Parallelism = 1
	serial, err := ControllerZoo(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := cfg
	parallelCfg.Parallelism = 8
	parallel, err := ControllerZoo(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	serial.Render(&a)
	parallel.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("zoo report differs between parallelism 1 and 8")
	}
}
