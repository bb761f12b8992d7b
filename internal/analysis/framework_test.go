package analysis_test

import (
	"go/token"
	"reflect"
	"testing"

	"nostop/internal/analysis"
	"nostop/internal/analysis/analysistest"
)

// TestDefaultConfigScopes pins the repository's determinism contract: which
// analyzer runs where.
func TestDefaultConfigScopes(t *testing.T) {
	cfg := analysis.DefaultConfig()
	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"wallclock", "nostop/internal/engine", true},
		{"wallclock", "nostop/internal/analysis", true},
		{"wallclock", "nostop/internal/stats_test", true}, // external test packages inherit the prefix
		{"wallclock", "nostop/cmd/nostop-sim", false},     // binaries talk to humans in wall time
		{"wallclock", "nostop/examples/quickstart", false},
		{"wallclock", "nostop", false},

		{"floateq", "nostop/internal/core", true},
		{"floateq", "nostop/internal/spsa", true},
		{"floateq", "nostop/internal/engine", true},
		{"floateq", "nostop/internal/stats", false},
		{"floateq", "nostop/internal/linalg", false},

		{"simgoroutine", "nostop/internal/sim", true},
		{"simgoroutine", "nostop/internal/faults", true},
		{"simgoroutine", "nostop/internal/listener", false}, // allowlisted: serves concurrent readers
		{"simgoroutine", "nostop/internal/listener_test", false},
		{"simgoroutine", "nostop/cmd/nostop-listen", false},

		{"randsource", "nostop/internal/rng", true}, // global-func ban still applies inside rng
		{"randsource", "nostop/cmd/nostop-bench", true},
		{"maporder", "nostop", true},
		{"maporder", "nostop/cmd/nostop-bench", true},

		{"hotalloc", "nostop/internal/sim", true},
		{"hotalloc", "nostop/internal/engine", true},
		{"hotalloc", "nostop/cmd/nostop-sim", false}, // binaries are off the 0-alloc budget
		{"hotalloc", "nostop", false},

		{"obscontract", "nostop/internal/engine", true},
		{"obscontract", "nostop/internal/service", true},
		{"obscontract", "nostop/cmd/nostop-bench", false},

		{"lockguard", "nostop/internal/service", true}, // opt-in by annotation: runs everywhere
		{"lockguard", "nostop/cmd/nostop-listen", true},
		{"lockguard", "nostop", true},

		{"deadapi", "nostop/internal/ratetrace", true},
		{"deadapi", "nostop/internal/analysis", true},
		{"deadapi", "nostop/internal/analysis/analysistest", false}, // test support: only tests call it
		{"deadapi", "nostop/cmd/nostop-sim", false},                 // commands are where references come from
		{"deadapi", "nostop/perfbench", false},
	}
	for _, c := range cases {
		if got := cfg.Applies(c.analyzer, c.pkg); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
	if !analysis.MatchAny("nostop/internal/rng", cfg.List("randsource.imports")) {
		t.Error("internal/rng must be on the randsource import allowlist")
	}
	if analysis.MatchAny("nostop/internal/spsa", cfg.List("randsource.imports")) {
		t.Error("internal/spsa must not be on the randsource import allowlist")
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		path, pat string
		want      bool
	}{
		{"nostop/internal/core", "nostop/internal/...", true},
		{"nostop/internal", "nostop/internal/...", true},
		{"nostop/internals", "nostop/internal/...", false},
		{"nostop/internal/core", "nostop/internal/core", true},
		{"nostop/internal/core/sub", "nostop/internal/core", false},
		{"nostop/internal/core/sub", "nostop/internal/core/...", true},
	}
	for _, c := range cases {
		if got := analysis.MatchAny(c.path, []string{c.pat}); got != c.want {
			t.Errorf("MatchAny(%q, %q) = %v, want %v", c.path, c.pat, got, c.want)
		}
	}
}

// TestSuppressionMultipleAnalyzers checks that one //nostop:allow comment can
// name several analyzers, covering the fixture's doubly offending line.
func TestSuppressionMultipleAnalyzers(t *testing.T) {
	for _, a := range []*analysis.Analyzer{analysis.WallClock, analysis.RandSource} {
		diags := analysistest.Diagnostics(t, a, "suppress_multi", "fixture/suppress_multi", nil)
		if len(diags) != 1 {
			t.Errorf("%s: want exactly the unsuppressed control finding, got %v", a.Name, diags)
			continue
		}
		if diags[0].Pos.Line != controlLine(t, diags[0].Pos.Filename) {
			t.Errorf("%s: finding at line %d, want the CONTROL-marked line", a.Name, diags[0].Pos.Line)
		}
	}
}

// controlLine finds the fixture line marked CONTROL, so the test does not
// hard-code line numbers.
func controlLine(t *testing.T, filename string) int {
	t.Helper()
	pkg, err := analysis.LoadDir("testdata/src/suppress_multi", "fixture/suppress_multi")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if pos := pkg.Fset.Position(c.Pos()); pos.Filename == filename {
					if containsControl(c.Text) {
						return pos.Line
					}
				}
			}
		}
	}
	t.Fatalf("no CONTROL marker in %s", filename)
	return 0
}

func containsControl(s string) bool {
	for i := 0; i+7 <= len(s); i++ {
		if s[i:i+7] == "CONTROL" {
			return true
		}
	}
	return false
}

// TestCheckOutputDeterministic runs the full suite over a fixture twice and
// requires identical, position-sorted output — the property nostop-vet's CI
// gate depends on.
func TestCheckOutputDeterministic(t *testing.T) {
	pkg, err := analysis.LoadDir("testdata/src/suppress_multi", "fixture/suppress_multi")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []analysis.Diagnostic {
		return analysis.Check([]*analysis.Package{pkg}, analysis.All(), nil)
	}
	a, b := run(), run()
	if len(a) != 2 {
		t.Fatalf("want the 2 CONTROL findings (wallclock + randsource), got %v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%v\n%v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if later(a[i-1].Pos, a[i].Pos) {
			t.Fatalf("diagnostics not position-sorted: %v before %v", a[i-1], a[i])
		}
	}
}

func later(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename > b.Filename
	}
	if a.Line != b.Line {
		return a.Line > b.Line
	}
	return a.Column > b.Column
}
