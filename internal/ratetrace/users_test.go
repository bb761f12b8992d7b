package ratetrace

import (
	"strings"
	"testing"
	"time"

	"nostop/internal/sim"
)

func TestUsersRateAndSteps(t *testing.T) {
	u, err := NewUsers(0.005, []UserStep{
		{From: 0, Users: 2e6},
		{From: sim.Time(10 * time.Minute), Users: 3e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.RateAt(0); got != 10000 {
		t.Errorf("RateAt(0) = %v, want 10000 (2M users × 0.005)", got)
	}
	if got := u.RateAt(sim.Time(9 * time.Minute)); got != 10000 {
		t.Errorf("RateAt(9m) = %v, want 10000", got)
	}
	if got := u.RateAt(sim.Time(10 * time.Minute)); got != 15000 {
		t.Errorf("RateAt(10m) = %v, want 15000 after the step", got)
	}
	if got := u.NextChange(0); got != sim.Time(10*time.Minute) {
		t.Errorf("NextChange(0) = %v, want the 10m boundary", got)
	}
	if got := u.NextChange(sim.Time(10 * time.Minute)); got != sim.Infinity {
		t.Errorf("NextChange(10m) = %v, want Infinity", got)
	}
	if d := u.Describe(); !strings.Contains(d, "users") {
		t.Errorf("Describe() = %q, want the users denomination", d)
	}
}

// NextChange makes RecordsIn integrate the piecewise-constant
// aggregate exactly across a population step.
func TestUsersRecordsInExact(t *testing.T) {
	u, err := NewUsers(0.01, []UserStep{
		{From: 0, Users: 1e6},
		{From: sim.Time(time.Minute), Users: 2e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 60s at 10k/s + 60s at 20k/s.
	got := RecordsIn(u, 0, sim.Time(2*time.Minute))
	if want := 600000.0 + 1200000.0; got != want {
		t.Errorf("RecordsIn = %v, want %v", got, want)
	}
}

func TestUsersValidation(t *testing.T) {
	if _, err := NewUsers(-1, []UserStep{{From: 0, Users: 1}}); err == nil {
		t.Error("negative per-user rate accepted")
	}
	if _, err := NewUsers(1, nil); err == nil {
		t.Error("empty population accepted")
	}
	if _, err := NewUsers(1, []UserStep{{From: 0, Users: -5}}); err == nil {
		t.Error("negative population accepted")
	}
	if _, err := NewUsers(1, []UserStep{{From: 5, Users: 1}, {From: 5, Users: 2}}); err == nil {
		t.Error("non-ascending segments accepted")
	}
}
