package main

import (
	"bytes"
	"strings"
	"testing"

	"nostop/internal/experiments"
)

// bench runs the command's body with the given arguments and returns its
// stdout. The cases below all fail before any experiment runs;
// make experiments-smoke pins the sweeps' output.
func bench(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestUnknownExperimentListsEveryName(t *testing.T) {
	// The retired perf modes are unknown names like any other.
	for _, name := range []string{"nope", "kernel", "fleet", "tenants", "zoo"} {
		out, err := bench(t, "-experiment", name)
		if err == nil {
			t.Fatalf("-experiment %s accepted", name)
		}
		if out != "" {
			t.Errorf("-experiment %s printed %q", name, out)
		}
		msg := err.Error()
		if !strings.Contains(msg, `unknown experiment "`+name+`"`) {
			t.Errorf("-experiment %s: error %q does not name it", name, msg)
		}
		for _, valid := range append([]string{"all"}, experiments.Names()...) {
			if !strings.Contains(msg, valid) {
				t.Errorf("-experiment %s: error %q does not list %s", name, msg, valid)
			}
		}
	}
}

func TestRejectsBadFlagsBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "all", "-csv"},
		{"-experiment", "fig7", "-reps", "-1"},
		{"-experiment", "fig2", "-horizon", "-5m"},
		{"-quick", "-reps", "-1"},
	} {
		if out, err := bench(t, args...); err == nil || out != "" {
			t.Errorf("%v: output %q, error %v; want an error and no output", args, out, err)
		}
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, name := range experiments.Names() {
		if seen[name] {
			t.Errorf("experiment name %q appears twice (or shadows all)", name)
		}
		seen[name] = true
		if e, ok := experiments.Lookup(name); !ok || e.Name != name || e.Run == nil {
			t.Errorf("Lookup(%q) = %q, %v", name, e.Name, ok)
		}
	}
}
