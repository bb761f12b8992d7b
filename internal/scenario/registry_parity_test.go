package scenario

import (
	"testing"

	"nostop/internal/controllers"
	"nostop/internal/fleet"
)

// TestUnknownControllerErrorMatchesFleet locks the shared-registry fix: a
// scenario spec and a fleet spec naming the same unknown controller must
// fail with byte-identical error text, because both validations consult
// the one controller registry.
func TestUnknownControllerErrorMatchesFleet(t *testing.T) {
	spec := testSpec()
	spec.Controller = "pid"
	scenErr := spec.Validate()
	if scenErr == nil {
		t.Fatal("scenario spec with unknown controller validated")
	}
	fleetErr := fleet.Spec{
		Seeds:       []uint64{1},
		Workloads:   []string{"logreg"},
		Controllers: []string{"pid"},
	}.Validate()
	if fleetErr == nil {
		t.Fatal("fleet spec with unknown controller validated")
	}
	if scenErr.Error() != fleetErr.Error() {
		t.Fatalf("error text diverged:\nscenario: %s\nfleet:    %s", scenErr, fleetErr)
	}
	// Every registered name passes the scenario-side check too.
	for _, name := range controllers.Names() {
		spec := testSpec()
		spec.Controller = name
		if err := spec.Validate(); err != nil {
			t.Errorf("registered controller %s rejected: %v", name, err)
		}
	}
}
