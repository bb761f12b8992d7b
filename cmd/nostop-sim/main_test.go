package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nostop/internal/controllers"
	"nostop/internal/fleet"
)

// simulate runs the command's body with the flag defaults except the given
// tuner, horizon and report period, and returns its stdout.
func simulate(t *testing.T, tuner string, horizon, report time.Duration) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(&out, "wordcount", tuner, horizon, 1, 0, 0, 0, 0, report, 0, horizon/2, "", "")
	return out.String(), err
}

// progressTimes returns the t= stamps of the progress lines, in order.
func progressTimes(out string) []string {
	var ts []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "t="); ok {
			ts = append(ts, strings.Fields(rest)[0])
		}
	}
	return ts
}

func TestEveryRegisteredTunerRuns(t *testing.T) {
	for _, name := range controllers.Names() {
		t.Run(name, func(t *testing.T) {
			out, err := simulate(t, name, 10*time.Minute, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "tuner "+name+",") {
				t.Errorf("header does not name tuner %s:\n%s", name, out)
			}
			if got := progressTimes(out); strings.Join(got, " ") != "5m0s 10m0s" {
				t.Errorf("progress stamps %v, want [5m0s 10m0s]", got)
			}
			if !strings.Contains(out, "summary: ") || strings.Contains(out, "summary: 0 batches") {
				t.Errorf("run completed no batches:\n%s", out)
			}
		})
	}
}

func TestRunEndsAtHorizonWhenReportDoesNotDivideIt(t *testing.T) {
	out, err := simulate(t, fleet.ControllerStatic, 25*time.Minute, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := progressTimes(out); strings.Join(got, " ") != "10m0s 20m0s 25m0s" {
		t.Errorf("progress stamps %v, want [10m0s 20m0s 25m0s]", got)
	}
	// The summary covers the whole horizon: a 30s-interval static run
	// completes a batch roughly every 30s, so 25 minutes hold ~50.
	short, err := simulate(t, fleet.ControllerStatic, 20*time.Minute, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if summaryLine(out) == summaryLine(short) {
		t.Errorf("25m run summarised like the 20m run: %q", summaryLine(out))
	}
}

func TestRejectsBadTunerAndReport(t *testing.T) {
	_, err := simulate(t, "x", 10*time.Minute, 5*time.Minute)
	if err == nil || err.Error() != controllers.UnknownError("x").Error() {
		t.Errorf("-tuner x: got %v, want the registry's unknown-controller error", err)
	}
	for _, report := range []time.Duration{0, -time.Minute} {
		if _, err := simulate(t, fleet.ControllerStatic, 10*time.Minute, report); err == nil {
			t.Errorf("-report %v accepted", report)
		}
	}
	for _, horizon := range []time.Duration{0, -5 * time.Minute} {
		if _, err := simulate(t, fleet.ControllerStatic, horizon, 5*time.Minute); err == nil {
			t.Errorf("-horizon %v accepted", horizon)
		}
	}
}

// summaryLine returns the "summary: N batches, M records" line.
func summaryLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "summary: ") {
			return line
		}
	}
	return ""
}
