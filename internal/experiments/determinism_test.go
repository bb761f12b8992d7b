package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nostop/internal/fleet"
	"nostop/internal/rng"
	"nostop/internal/workload"
)

// These tests are the executable form of the determinism contract (DESIGN.md
// §5d): the same seed must reproduce the same simulation byte for byte, no
// matter how many times it runs in one process. The serialization goes through
// fmt's %+v, which since Go 1.12 prints map keys in sorted order, so any
// difference the comparison surfaces is real nondeterminism (wall-clock reads,
// unseeded randomness, map-order leakage, goroutine interleaving) and not a
// formatting artifact.

// firstDiff returns a readable window around the first byte where a and b
// disagree, so a failure points at the diverging field instead of dumping two
// multi-megabyte histories.
func firstDiff(a, b string) string {
	limit := len(a)
	if len(b) < limit {
		limit = len(b)
	}
	i := 0
	for i < limit && a[i] == b[i] {
		i++
	}
	if i == limit && len(a) == len(b) {
		return "identical"
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	win := func(s string) string {
		hi := i + 80
		if hi > len(s) {
			hi = len(s)
		}
		return s[lo:hi]
	}
	return fmt.Sprintf("first divergence at byte %d:\n  run1: …%s…\n  run2: …%s…", i, win(a), win(b))
}

// TestChaosDeterministicAcrossRuns runs the full three-variant chaos
// experiment twice with the same seed and asserts the rendered tables and
// fault timelines are byte-identical.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("double multi-variant chaos run")
	}
	cfg := quick()
	cfg.Horizon = 30 * time.Minute

	render := func() (string, string) {
		tab, timeline, err := ChaosUnderPlan(cfg, "logreg", ChaosPlan(cfg.Horizon))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		return buf.String(), timeline
	}
	tab1, tl1 := render()
	tab2, tl2 := render()

	if tab1 == "" || tl1 == "" {
		t.Fatal("chaos run produced an empty table or timeline")
	}
	if tab1 != tab2 {
		t.Errorf("chaos tables differ across same-seed runs; %s", firstDiff(tab1, tab2))
	}
	if tl1 != tl2 {
		t.Errorf("fault timelines differ across same-seed runs; %s", firstDiff(tl1, tl2))
	}
}

// TestChaosHistoryByteIdentical drives a single engine+controller chaos run
// twice and compares the complete serialized batch history — every field of
// every BatchStats — and the injector's fault timeline. This is a stricter
// check than the table comparison above: the table aggregates, so compensating
// errors could cancel; the raw history cannot hide them.
func TestChaosHistoryByteIdentical(t *testing.T) {
	const horizon = 25 * time.Minute
	plan := ChaosPlan(horizon)

	run := func() (history, timeline string) {
		wl, err := workload.New("logreg")
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.New(7).Split("det")
		det, err := fleet.Assemble(fleet.Setup{
			Workload:       wl,
			Trace:          bandTrace(wl, seed.Split("trace")),
			Seed:           seed,
			ControllerSeed: rng.New(7),
			Plan:           plan,
			Controller:     fleet.ControllerNoStop,
		}, fleet.Observe{})
		if err != nil {
			t.Fatal(err)
		}
		r := finish(det, horizon)
		if len(r.history) == 0 {
			t.Fatal("chaos run completed no batches")
		}
		return fmt.Sprintf("%+v", r.history), r.inj.String()
	}

	h1, tl1 := run()
	h2, tl2 := run()
	if h1 != h2 {
		t.Errorf("batch histories differ across same-seed runs; %s", firstDiff(h1, h2))
	}
	if tl1 != tl2 {
		t.Errorf("fault timelines differ across same-seed runs; %s", firstDiff(tl1, tl2))
	}
}
