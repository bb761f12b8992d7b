package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nostop/internal/experiments"
)

// bench runs the command's body with the given arguments and returns its
// stdout. make experiments-smoke pins the full-scale sweeps' output; the
// cases below run at small scale or fail before any experiment runs.
func bench(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestUnknownExperimentListsEveryName(t *testing.T) {
	// The retired perf modes are unknown names like any other.
	for _, name := range []string{"nope", "kernel", "fleet", "tenants"} {
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
		{"-experiment", "zoo", "-j", "-1"},
		{"-experiment", "chaos", "-mode", "bogus"},
		{"-experiment", "chaos", "-mode", "chaos", "-intensity", "0"},
		{"-experiment", "chaos", "-workload", "nope"},
		{"-experiment", "fig7", "-mode", "chaos"},
		{"-experiment", "all", "-mode", "chaos"},
		{"-mode", "chaos"},
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

// TestQuickKeepsExplicitScale: -quick supplies the scale, and -reps and
// -horizon given with it override it.
func TestQuickKeepsExplicitScale(t *testing.T) {
	got, err := bench(t, "-quick", "-experiment", "fig7", "-reps", "2", "-horizon", "10m")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Quick()
	cfg.Repetitions, cfg.Horizon = 2, 10*time.Minute
	tab, err := experiments.Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	tab.Render(&want)
	if got != want.String() {
		t.Errorf("-quick -reps 2 -horizon 10m printed\n%s\nwant\n%s", got, want.String())
	}
}

// TestZooSameBytesAtAnyParallelism is make zoo-smoke in miniature: -j
// changes wall time only.
func TestZooSameBytesAtAnyParallelism(t *testing.T) {
	args := []string{"-experiment", "zoo", "-reps", "2", "-horizon", "10m"}
	serial, err := bench(t, append(args, "-j", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := bench(t, append(args, "-j", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(serial, "Controller zoo:") || serial != parallel {
		t.Errorf("-j 1 printed\n%s\n-j 2 printed\n%s", serial, parallel)
	}
}

// TestSeededChaosRepeats: a seeded chaos plan replays byte for byte, and
// the table is followed by the plan and the injected timeline.
func TestSeededChaosRepeats(t *testing.T) {
	args := []string{"-experiment", "chaos", "-mode", "chaos", "-seed", "7", "-horizon", "25m"}
	first, err := bench(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := bench(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("same seed, different output:\n%s\n---\n%s", first, second)
	}
	for _, want := range []string{"Chaos: ", "\nFault plan:\n", "\nInjected timeline (NoStop run):\n"} {
		if !strings.Contains(first, want) {
			t.Errorf("output lacks %q:\n%s", want, first)
		}
	}
	csv, err := bench(t, append(args, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "variant,") || strings.Contains(csv, "Fault plan:") {
		t.Errorf("-csv printed more than the table:\n%s", csv)
	}
}
