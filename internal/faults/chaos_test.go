package faults

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"nostop/internal/rng"
)

// Methodless copies of the fault types: %+v prints every field at full
// precision instead of the rounded String forms.
type (
	rawFault     Fault
	rawProcFault ProcFault
)

// TestChaosGeneratorsGolden pins both seeded generators byte for byte
// against plans frozen in testdata. The determinism tests only compare a
// run with a second run, so a change in draw order would pass them; this
// one fails on any change to what either generator draws, or in what order.
// After an intended change, `make golden` rewrites the file
// (GOLDEN_UPDATE=1, as for the experiment goldens).
func TestChaosGeneratorsGolden(t *testing.T) {
	const path = "testdata/chaos_plans.golden"
	got := chaosPlansText()
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}

// chaosPlansText renders both generators' plans over a fixed grid of seeds
// and options, one fault per line at full precision.
func chaosPlansText() string {
	var b strings.Builder
	chaos := []struct {
		name string
		opts ChaosOptions
	}{
		{"defaults", ChaosOptions{Horizon: time.Hour}},
		// experiments.ChaosPlanFor's options at intensity 2.5 over its
		// default two-hour horizon.
		{"intensity-2.5", ChaosOptions{
			Horizon:     2 * time.Hour,
			MeanGap:     time.Duration(float64(2*time.Hour) / 25),
			MaxStraggle: 12,
			MaxTaskFail: 0.9,
			MaxSpike:    4.3,
		}},
	}
	for _, c := range chaos {
		for _, seed := range []uint64{1, 2, 3, 9} { // 2 clips a window at intensity 2.5
			fmt.Fprintf(&b, "chaos %s seed=%d\n", c.name, seed)
			for _, f := range Chaos(rng.New(seed).Split("chaos-plan"), c.opts) {
				fmt.Fprintf(&b, "  %+v\n", rawFault(f))
			}
		}
	}
	procs := []struct {
		name  string
		peers []string
	}{
		{"three-peers", []string{"broker", "engine", "controller"}},
		{"one-peer", []string{"engine"}},
	}
	for _, p := range procs {
		for _, seed := range []uint64{1, 5, 7, 9, 11, 27} { // 9 and 27 clip a window at the horizon
			fmt.Fprintf(&b, "proc-chaos %s seed=%d\n", p.name, seed)
			plan := ProcChaos(rng.New(seed).Split("proc-chaos"), ProcChaosOptions{Horizon: 30 * time.Minute, Peers: p.peers})
			for _, f := range plan {
				fmt.Fprintf(&b, "  %+v\n", rawProcFault(f))
			}
		}
	}
	return b.String()
}
