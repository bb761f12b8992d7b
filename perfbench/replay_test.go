package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestReplaysMatchWorkloads runs a small version of each workload once and
// checks that every leaf-layer replay makes the calls per simulated hour
// that the real run's public accessors report, so a replay cannot drift
// from the workload it stands for.
func TestReplaysMatchWorkloads(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			b, err := def.setup(defaultSeed, true)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			r, err := b.round(rec, -1, 0)
			if err != nil {
				t.Fatal(err)
			}
			for lane, open := range rec.lanes {
				if open {
					t.Errorf("span on lane %d never ended", lane)
				}
			}
			for _, a := range r.runs {
				if a.err != nil {
					t.Fatalf("%s: %v", a.key, a.err)
				}
			}
			p := b.pattern(r)
			clockHours := float64(r.c.clocks) * r.c.clockHours

			near(t, "sim events per hour", replaySim(p, time.Hour).perHour, float64(r.c.events)/clockHours)
			cuts, err := replayFetchCommit(p, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			near(t, "batch cuts per hour", cuts.perHour, float64(r.c.batches)/clockHours)
			send, err := replaySend(p, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			near(t, "records per hour", send.perHour, float64(r.c.records)/clockHours)
			near(t, "RecordsIn calls per trace-hour", replayRecordsIn(p, time.Hour).perHour,
				r.c.traceCalls/float64(r.c.apps)/r.c.clockHours)
			if r.c.traced > 0 {
				near(t, "tracer events per hour", replayTracing(p, time.Hour).perHour, float64(r.c.tracerEvents)/clockHours)
			}
		})
	}
}

// near fails unless got is within 1% (or one call) of want.
func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if want <= 0 {
		t.Fatalf("%s: the real run reports %v", what, want)
	}
	if d := math.Abs(got - want); d > 1 && d > 0.01*want {
		t.Errorf("%s: replay %.1f, real run %.1f", what, got, want)
	}
}

// TestCheckerCountsFailures pins the failure rules: errors, a repeated
// round whose output differs from the reference, and a twin mismatch each
// fail one app-run; a fresh round is checked for errors only.
func TestCheckerCountsFailures(t *testing.T) {
	ref := &round{runs: []appRun{{key: "a", digest: "1", twin: "x"}, {key: "b", digest: "2", twin: "y"}}}
	c := &checker{}
	c.reference(ref)
	c.compare(&round{runs: []appRun{{key: "a", digest: "1"}, {key: "b", digest: "changed"}}})
	c.compare(&round{fresh: true, runs: []appRun{{key: "a", digest: "9"}, {key: "b", err: errTest}}})
	c.twin(&round{runs: []appRun{{key: "a", twin: "x"}, {key: "b", twin: "z"}}})
	if c.attempted != 6 || c.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 6 and 3 (%v)", c.attempted, c.failed, c.messages)
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestRunRejectsBadArguments: a bad workload or flag exits 2 without a
// result line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep", "--trace", "2"},
		{"--workload", "sweep", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
		if !strings.HasPrefix(errOut.String(), "perfbench: ") {
			t.Errorf("%v: stderr %q", args, errOut.String())
		}
	}
}
