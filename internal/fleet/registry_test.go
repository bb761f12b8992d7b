package fleet

import (
	"strings"
	"testing"

	"nostop/internal/controllers"
	"nostop/internal/engine"
)

func TestRegistryCoversAllConstants(t *testing.T) {
	for _, name := range []string{ControllerStatic, ControllerNoStop, ControllerBackPressure,
		ControllerBayesOpt, ControllerGP, ControllerRL} {
		info, ok := controllers.Lookup(name)
		if !ok || info.Name != name {
			t.Errorf("constant %q: Lookup = %+v, %v", name, info, ok)
		}
		if info.Summary == "" {
			t.Errorf("controller %q has no summary", name)
		}
	}
	if _, ok := controllers.Lookup("pid"); ok {
		t.Error("Lookup found an unregistered name")
	}
	if got, want := len(controllers.Names()), len(controllers.All()); got != want {
		t.Errorf("Names has %d entries, All %d", got, want)
	}
}

func TestRegistryFaultOptIns(t *testing.T) {
	// Only the two pre-contract baselines may reconfigure during an active
	// fault window; every controller added since is failure-aware. Widening
	// this set is an explicit conformance decision, not a default.
	optIn := map[string]bool{ControllerBackPressure: true, ControllerBayesOpt: true}
	for _, info := range controllers.All() {
		if info.ReconfiguresDuringFaults != optIn[info.Name] {
			t.Errorf("controller %s: ReconfiguresDuringFaults=%v, want %v",
				info.Name, info.ReconfiguresDuringFaults, optIn[info.Name])
		}
	}
}

func TestRegistryFactories(t *testing.T) {
	// static is the registry's only factory-less entry: Assemble attaches
	// nothing for it and builds every other controller from its entry.
	for _, info := range controllers.All() {
		if got, want := info.New == nil, info.Name == ControllerStatic; got != want {
			t.Errorf("controller %s: nil factory = %v, want %v", info.Name, got, want)
		}
	}
}

func TestAssembleRejectsUnknownControllerFirst(t *testing.T) {
	// The setup is empty (no workload, trace or seed), so any build step
	// would fail or panic; the hook would fail the test.
	_, err := Assemble(Setup{Controller: "pid"}, Observe{Attach: func(*engine.Engine) error {
		t.Error("Assemble built a run for an unknown controller")
		return nil
	}})
	if err == nil || err.Error() != controllers.UnknownError("pid").Error() {
		t.Errorf("Assemble(pid) error = %v, want %v", err, controllers.UnknownError("pid"))
	}
}

func TestUnknownControllerErrorListsRegistry(t *testing.T) {
	err := controllers.UnknownError("pid")
	if err == nil {
		t.Fatal("nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"pid"`) {
		t.Errorf("error %q does not name the offender", msg)
	}
	for _, name := range controllers.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list %s", msg, name)
		}
	}
}
