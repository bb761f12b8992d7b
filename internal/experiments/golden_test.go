package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nostop/internal/fleet"
	"nostop/internal/metrics"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// Golden-master regression tests.
//
// The artifacts under testdata/golden were generated at the commit
// immediately preceding the hot-path optimization of the sim kernel and
// record pipeline (event pooling, 4-ary heap, record chunks, pooled trace
// encoder). Every run here must keep reproducing them byte-for-byte: the
// optimization is only allowed to change how fast the simulator runs, never
// a single output byte of a same-seed run.
//
// Regeneration (only after an *intentional* behavior change, never to paper
// over a diff you cannot explain):
//
//	make golden        # == GOLDEN_UPDATE=1 go test ./internal/experiments -run TestGolden
//
// and commit the updated testdata/golden files together with the change
// that justifies them. See docs/PERF.md for the full workflow.

// goldenDir is where the checked-in artifacts live.
const goldenDir = "testdata/golden"

// goldenUpdate reports whether this invocation should rewrite the artifacts.
func goldenUpdate() bool { return os.Getenv("GOLDEN_UPDATE") == "1" }

// checkGolden compares got against the named artifact, failing with a
// readable first-divergence window. With GOLDEN_UPDATE=1 it rewrites the
// artifact instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if goldenUpdate() {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden artifact missing (run `make golden` at the last known-good commit): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s diverged from the golden master (%d golden bytes, %d got); %s",
			name, len(want), len(got), firstDiff(string(want), string(got)))
	}
}

// goldenObservedRun is the fixed single-engine scenario behind the metrics
// and trace goldens: a chaos-plan run with the NoStop controller and the
// full observability layer attached. Axes are frozen — changing any of them
// invalidates the artifacts.
func goldenObservedRun(t *testing.T) (prom, trace string) {
	t.Helper()
	const horizon = 20 * time.Minute
	wl, err := workload.New("logreg")
	if err != nil {
		t.Fatal(err)
	}
	seed := rng.New(11).Split("golden")
	reg := metrics.NewRegistry()
	det, err := fleet.Assemble(fleet.Setup{
		Workload:       wl,
		Trace:          bandTrace(wl, seed.Split("trace")),
		Seed:           seed,
		ControllerSeed: rng.New(11),
		Plan:           ChaosPlan(horizon),
		Controller:     fleet.ControllerNoStop,
	}, fleet.Observe{Metrics: reg, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, tr := det.Engine, det.Tracer
	eng.Clock().RunUntil(sim.Time(horizon))
	if len(eng.History()) == 0 {
		t.Fatal("golden run completed no batches")
	}
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return reg.String(), buf.String()
}

// goldenFleetSpec is the fixed sweep behind the manifest golden: small
// enough to run in a test, wide enough to cross workloads, controllers, and
// seeds.
func goldenFleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:        "golden-fleet",
		Seeds:       []uint64{1, 2},
		Workloads:   []string{"logreg", "wordcount"},
		Controllers: []string{fleet.ControllerStatic, fleet.ControllerNoStop},
		Horizon:     fleet.Duration(10 * time.Minute),
		Warmup:      0.5,
	}
}

// TestGoldenFleetManifest locks the fleet manifest bytes of a fixed sweep.
func TestGoldenFleetManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fleet sweep skipped in -short mode")
	}
	rep, err := fleet.Run(goldenFleetSpec(), fleet.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := rep.Manifest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet_manifest.json", manifest)
	aggs, err := fleet.EncodeAggregates(rep.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet_aggregates.json", aggs)
}

// TestGoldenObservability locks the Prometheus exposition and the Chrome
// trace JSON of the fixed observed run.
func TestGoldenObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("golden observed run skipped in -short mode")
	}
	prom, trace := goldenObservedRun(t)
	checkGolden(t, "metrics.prom", []byte(prom))
	checkGolden(t, "trace.json", []byte(trace))
	if n, err := tracing.Validate(strings.NewReader(trace)); err != nil {
		t.Errorf("golden trace fails schema validation: %v", err)
	} else if n == 0 {
		t.Error("golden trace contains no events")
	}
}

// TestGoldenArtifactsPresent guards against accidentally deleting the
// checked-in artifacts: updating them is always an explicit `make golden`.
func TestGoldenArtifactsPresent(t *testing.T) {
	if goldenUpdate() {
		t.Skip("updating")
	}
	for _, name := range []string{
		"fleet_manifest.json", "fleet_aggregates.json", "metrics.prom", "trace.json",
	} {
		st, err := os.Stat(filepath.Join(goldenDir, name))
		if err != nil {
			t.Errorf("missing golden artifact %s: %v", name, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("golden artifact %s is empty", name)
		}
	}
}

// sanity: firstDiff is shared with the determinism tests; keep the helper
// honest about equal inputs so golden failures never report "identical".
func TestFirstDiffReportsIndex(t *testing.T) {
	if got := firstDiff("abc", "abc"); got != "identical" {
		t.Fatalf("firstDiff on equal strings = %q", got)
	}
	if got := firstDiff("abcd", "abxd"); !strings.Contains(got, fmt.Sprint(2)) {
		t.Fatalf("firstDiff should name byte offset 2, got %q", got)
	}
}
