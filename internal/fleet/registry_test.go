package fleet

import (
	"strings"
	"testing"

	"nostop/internal/engine"
)

func TestRegistryCoversAllConstants(t *testing.T) {
	for _, name := range []string{ControllerStatic, ControllerNoStop, ControllerBackPressure,
		ControllerBayesOpt, ControllerGP, ControllerRL} {
		if !KnownController(name) {
			t.Errorf("constant %q not registered", name)
		}
		info, ok := LookupController(name)
		if !ok || info.Name != name {
			t.Errorf("LookupController(%q) = %+v, %v", name, info, ok)
		}
		if info.Summary == "" {
			t.Errorf("controller %q has no summary", name)
		}
	}
	if KnownController("pid") {
		t.Error("unregistered name accepted")
	}
	if _, ok := LookupController("pid"); ok {
		t.Error("LookupController found an unregistered name")
	}
	if got, want := len(ControllerNames()), len(Controllers()); got != want {
		t.Errorf("ControllerNames has %d entries, Controllers %d", got, want)
	}
}

func TestRegistryFaultOptIns(t *testing.T) {
	// Only the two pre-contract baselines may reconfigure during an active
	// fault window; every controller added since is failure-aware. Widening
	// this set is an explicit conformance decision, not a default.
	optIn := map[string]bool{ControllerBackPressure: true, ControllerBayesOpt: true}
	for _, info := range Controllers() {
		if info.ReconfiguresDuringFaults != optIn[info.Name] {
			t.Errorf("controller %s: ReconfiguresDuringFaults=%v, want %v",
				info.Name, info.ReconfiguresDuringFaults, optIn[info.Name])
		}
	}
}

func TestRegistryFactories(t *testing.T) {
	// static is the registry's only factory-less entry: Assemble attaches
	// nothing for it and builds every other controller from its entry.
	for _, info := range Controllers() {
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
	if err == nil || err.Error() != UnknownControllerError("pid").Error() {
		t.Errorf("Assemble(pid) error = %v, want %v", err, UnknownControllerError("pid"))
	}
}

func TestUnknownControllerErrorListsRegistry(t *testing.T) {
	err := UnknownControllerError("pid")
	if err == nil {
		t.Fatal("nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"pid"`) {
		t.Errorf("error %q does not name the offender", msg)
	}
	for _, name := range ControllerNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list %s", msg, name)
		}
	}
}
